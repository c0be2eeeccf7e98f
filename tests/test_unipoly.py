"""Differential tests of the integer-numerator UniPoly against a plain
little-endian Fraction-tuple reference written here, plus canonical equality
and hashing, and the Qt-expansion identity on the worked and deep chains."""

from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from valring.algebra import UniPoly, ValuedFieldCtx, qexpand
from valring.errors import MalformedDivisor
from valring.keychain import build_chain

from conftest import CTX2, GA, GB, GC, GD, qexpand_ref


# -- the reference: tuples of Fractions, little-endian, no trailing zeros ----

def r_norm(cs):
    cs = [Fraction(c) for c in cs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def r_coeff(f, j):
    return f[j] if j < len(f) else Fraction(0)


def r_add(f, g):
    return r_norm(r_coeff(f, j) + r_coeff(g, j) for j in range(max(len(f), len(g))))


def r_neg(f):
    return tuple(-c for c in f)


def r_mul(f, g):
    out = [Fraction(0)] * max(len(f) + len(g) - 1, 0)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return r_norm(out)


def r_pow(f, n):
    out = (Fraction(1),)
    for _ in range(n):
        out = r_mul(out, f)
    return out


def r_divmod(f, g):
    """Schoolbook long division over Q."""
    rem = list(f)
    quot = [Fraction(0)] * max(len(f) - len(g) + 1, 0)
    for k in range(len(f) - 1, len(g) - 2, -1):
        q = rem[k] / g[-1]
        quot[k - len(g) + 1] = q
        for j, b in enumerate(g):
            rem[k - len(g) + 1 + j] -= q * b
    return r_norm(quot), r_norm(rem[:len(g) - 1])


def r_expand(f, q):
    """The q-expansion by repeated division."""
    out = []
    while f:
        f, r = r_divmod(f, q)
        out.append(r)
    return tuple(out)


def r_eval(f, v):
    acc = Fraction(0)
    for c in reversed(f):
        acc = acc * v + c
    return acc


def r_deriv(f):
    return r_norm(j * c for j, c in enumerate(f) if j)


fracs = st.fractions(min_value=-20, max_value=20, max_denominator=12)
polys = st.lists(fracs, max_size=6).map(r_norm)
nonzero = polys.filter(bool)


def U(f):
    return UniPoly(f)


def canonical(u):
    assert u.den > 0
    assert not u.nums or u.nums[-1] != 0
    assert gcd(u.den, *u.nums) == 1
    return u.coeffs


# -- arithmetic -----------------------------------------------------------------

@settings(max_examples=80)
@given(polys, polys)
def test_add_sub_mul(f, g):
    assert canonical(U(f) + U(g)) == r_add(f, g)
    assert canonical(U(f) - U(g)) == r_add(f, r_neg(g))
    assert canonical(-U(f)) == r_neg(f)
    assert canonical(U(f) * U(g)) == r_mul(f, g)
    with pytest.raises(AttributeError):
        U(f).nums = g


@settings(max_examples=40)
@given(polys, fracs)
def test_scalar_mul_and_div(f, c):
    assert canonical(U(f) * c) == r_mul(f, r_norm((c,)))
    assert canonical(c * U(f)) == r_mul(f, r_norm((c,)))
    for n in (c, c.numerator):
        assert canonical(n + U(f)) == r_add(r_norm((n,)), f)
        assert canonical(n - U(f)) == r_add(r_norm((n,)), r_neg(f))
    if c:
        assert canonical(U(f) / c) == r_mul(f, (1 / c,))
    else:
        with pytest.raises(ZeroDivisionError):
            U(f) / c


@settings(max_examples=30)
@given(st.lists(fracs, max_size=3).map(r_norm))
def test_pow(f):
    for n in range(10):
        assert canonical(U(f) ** n) == r_pow(f, n), n


@settings(max_examples=80)
@given(polys, nonzero)
def test_divmod_any_rational_divisor(f, g):
    q, r = divmod(U(f), U(g))
    assert (canonical(q), canonical(r)) == r_divmod(f, g)
    assert U(f) // U(g) == q and U(f) % U(g) == r


@settings(max_examples=80)
@given(polys, st.lists(fracs, min_size=1, max_size=3), st.booleans())
def test_divmod_and_qexpand_by_monic(f, low, integral):
    if integral:
        low = [c.numerator for c in low]
    g = r_norm(list(low) + [1])
    q, r = divmod(U(f), U(g))
    assert (canonical(q), canonical(r)) == r_divmod(f, g)
    if U(g).is_integral:
        assert tuple(canonical(d) for d in qexpand_ref(U(f), U(g))) == r_expand(f, g)
    else:  # every key and g is monic integral: qexpand takes no other divisor
        with pytest.raises(MalformedDivisor):
            qexpand(U(f).nums, U(g).nums)


@settings(max_examples=40)
@given(polys, st.lists(st.integers(-9, 9), min_size=1, max_size=3), fracs.filter(bool))
def test_scaled_qexpand(f, low, a):
    # digit j times a^j: the expansion in q / a
    g = r_norm(list(low) + [1])
    want = tuple(r_mul(d, (a ** j,)) for j, d in enumerate(r_expand(f, g)))
    assert tuple(canonical(d) for d in qexpand_ref(U(f), U(g), a)) == want


@settings(max_examples=60)
@given(polys, fracs)
def test_call_and_derivative(f, v):
    assert U(f)(v) == r_eval(f, v)
    assert U(f)(v.numerator) == r_eval(f, v.numerator)
    assert canonical(U(f).derivative()) == r_deriv(f)


# -- canonical form -------------------------------------------------------------

def test_equal_values_are_equal_and_hash_alike():
    assert UniPoly((Fraction(2, 4),)) == UniPoly((Fraction(1, 2),))
    assert hash(UniPoly((Fraction(2, 4),))) == hash(UniPoly((Fraction(1, 2),)))
    assert UniPoly((1, 2, 0, 0)) == UniPoly((1, 2))
    assert UniPoly((0, 0)) == UniPoly() and UniPoly().den == 1
    assert UniPoly(("1/6", "1/3")).nums == (1, 2) and UniPoly(("1/6", "1/3")).den == 6


@settings(max_examples=60)
@given(polys, polys)
def test_results_are_canonical(f, g):
    a = (U(f) + U(g)) - U(g)
    assert a == U(f) and hash(a) == hash(U(f))
    assert (a.nums, a.den) == (U(f).nums, U(f).den)


@settings(max_examples=60)
@given(polys)
def test_queries(f):
    u = U(f)
    assert u.is_integral == all(c.denominator == 1 for c in f)
    assert u.is_monic == (bool(f) and f[-1] == 1)
    assert u.den == lcm(*(c.denominator for c in f))
    assert u.degree == len(f) - 1 and u.is_zero == (not f)
    assert all(u.coeff(j) == r_coeff(f, j) for j in range(len(f) + 2))


# -- Qt-expansions on chains ----------------------------------------------------

DEEP = [(ValuedFieldCtx(2), UniPoly((7, 0, 1)), [[0, 0]], 24),
        (ValuedFieldCtx(2), UniPoly((7, 0, 1)), [[1, 0]], 24),
        (ValuedFieldCtx(3), UniPoly((2, 0, 1)), [[0, 1]], 16),
        (ValuedFieldCtx(5), UniPoly((1, 0, 1)), [[0, 0]], 16)]


@pytest.fixture(scope="module")
def chains():
    out = [build_chain(CTX2, g, "unique") for g in (GA, GB, GD)]
    out.append(build_chain(CTX2, GC, [[0, 0]], depth=4))
    out.extend(build_chain(ctx, g, branch, depth=d) for ctx, g, branch, d in DEEP)
    return out


def test_qt_expansion_is_scaled_q_expansion(chains):
    fs = [GA, GD, UniPoly((Fraction(1, 3), -5, 0, 7, 2)), UniPoly((Fraction(9, 4),))]
    checked = 0
    for chain in chains:
        for k, ent in enumerate(chain.entries):
            if ent.a is None:
                continue
            qt = ent.Qt.coeffs
            for f in fs + [chain.g, ent.Q ** 2 + 1]:
                exp = tuple(UniPoly._make(d, f.den) for d in qexpand(f.nums, ent.Q.nums, ent.a))
                assert exp == tuple(d * ent.a ** j for j, d in enumerate(qexpand_ref(f, ent.Q)))
                assert tuple(d.coeffs for d in exp) == r_expand(f.coeffs, qt)
                assert sum((d * ent.Qt ** j for j, d in enumerate(exp)), UniPoly()) == f
                checked += 1
    assert checked > 300
