"""Differential tests of the integer-numerator XPoly core against a plain
{monomial: Fraction} reference written here, plus canonical equality and
hashing."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from valring.algebra import UniPoly
from valring.xpoly import XPoly, divmod_in_var, power_expansion

POSITIONS = (0, 1, 2)


# -- the reference: dicts monomial -> Fraction, no zero values ---------------

def r_mono(d):
    return tuple(sorted((k, v) for k, v in d.items() if v))


def r_mono_mul(a, b):
    d = dict(a)
    for k, v in b:
        d[k] = d.get(k, 0) + v
    return r_mono(d)


def r_deg(m, pos):
    return dict(m).get(pos, 0)


def r_clean(f):
    return {m: c for m, c in f.items() if c != 0}


def r_add(f, g):
    out = dict(f)
    for m, c in g.items():
        out[m] = out.get(m, Fraction(0)) + c
    return r_clean(out)


def r_scale(f, c):
    return r_clean({m: a * c for m, a in f.items()})


def r_sub(f, g):
    return r_add(f, r_scale(g, Fraction(-1)))


def r_mul(f, g):
    out = {}
    for m1, c1 in f.items():
        for m2, c2 in g.items():
            m = r_mono_mul(m1, m2)
            out[m] = out.get(m, Fraction(0)) + c1 * c2
    return r_clean(out)


def r_pow(f, n):
    out = {(): Fraction(1)}
    for _ in range(n):
        out = r_mul(out, f)
    return out


def r_divmod(f, p, pos):
    r = max(r_deg(m, pos) for m in p)
    (lead_m, lc), = [(m, c) for m, c in p.items() if r_deg(m, pos) == r]
    assert lead_m == r_mono({pos: r})
    quot, rem = {}, dict(f)
    while rem and (d := max(r_deg(m, pos) for m in rem)) >= r:
        top = {}
        for m, c in rem.items():
            if r_deg(m, pos) == d:
                top[r_mono({**dict(m), pos: d - r})] = c / lc
        quot = r_add(quot, top)
        rem = r_sub(rem, r_mul(top, p))
    return quot, rem


def r_power_expansion(f, p, pos):
    out = []
    while True:
        f, rem = r_divmod(f, p, pos)
        out.append(rem)
        if not f:
            return out


def r_conv(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def r_eval(f, images):
    total = [Fraction(0)]
    for m, c in f.items():
        term = [c]
        for k, v in m:
            for _ in range(v):
                term = r_conv(term, images[k])
        if len(term) > len(total):
            total += [Fraction(0)] * (len(term) - len(total))
        for j, a in enumerate(term):
            total[j] += a
    while total and total[-1] == 0:
        total.pop()
    return tuple(total)


# -- strategies ---------------------------------------------------------------

fractions = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 8))
nonzero = fractions.filter(lambda c: c != 0)
monoms = st.dictionaries(st.sampled_from(POSITIONS), st.integers(0, 3), max_size=3) \
    .map(r_mono)
refs = st.dictionaries(monoms, fractions, max_size=6).map(r_clean)


@st.composite
def divisors(draw):
    """(reference P, pos): P = lc X_pos^r + lower terms of X_pos-degree < r."""
    pos = draw(st.sampled_from(POSITIONS))
    r = draw(st.integers(0, 2))
    lower = {m: c for m, c in draw(refs).items() if r_deg(m, pos) < r}
    return r_add(lower, {r_mono({pos: r}): draw(nonzero)}), pos


def X(f):
    # the public constructor, fed in reversed insertion order
    return XPoly(list(reversed(list(f.items()))))


def assert_canonical(F):
    assert F.den > 0
    assert all(isinstance(c, int) and c != 0 for c in F.nums.values())
    assert F.nums or F.den == 1
    assert gcd(F.den, *F.nums.values()) == 1
    for m in F.nums:
        assert list(m) == sorted(m) and len({k for k, _ in m}) == len(m)
        assert all(v > 0 for _, v in m)


def same(F, f):
    assert_canonical(F)
    assert dict(F.terms) == f


# -- arithmetic -----------------------------------------------------------------

@settings(max_examples=150, deadline=None)
@given(refs, refs, fractions)
def test_ring_operations(f, g, c):
    F, G = X(f), X(g)
    same(F, f)
    same(F + G, r_add(f, g))
    same(F - G, r_sub(f, g))
    same(-F, r_scale(f, Fraction(-1)))
    same(F * G, r_mul(f, g))
    same(F * c, r_scale(f, c))
    same(c * F, r_scale(f, c))
    same(F + c, r_add(f, r_clean({(): c})))
    same(c + F, r_add(f, r_clean({(): c})))
    same(c - F, r_sub(r_clean({(): c}), f))
    same(F ** 0, {(): Fraction(1)})
    if c != 0:
        same(F / c, r_scale(f, 1 / c))
    with pytest.raises(AttributeError):
        F.nums = {}


@settings(max_examples=40, deadline=None)
@given(refs.filter(lambda f: len(f) <= 3), st.integers(0, 9))
def test_power_is_repeated_multiplication(f, n):
    same(X(f) ** n, r_pow(f, n))


# -- division, expansion, substitution, evaluation --------------------------

@settings(max_examples=150, deadline=None)
@given(refs, divisors())
def test_divmod_in_var(f, div):
    p, pos = div
    q, rem = divmod_in_var(X(f), X(p), pos)
    want_q, want_rem = r_divmod(f, p, pos)
    same(q, want_q)
    same(rem, want_rem)


@settings(max_examples=80, deadline=None)
@given(refs, divisors().filter(lambda d: max(r_deg(m, d[1]) for m in d[0]) >= 1))
def test_power_expansion(f, div):
    p, pos = div
    got = power_expansion(X(f), X(p), pos)
    want = r_power_expansion(f, p, pos)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        same(a, b)


images_st = st.fixed_dictionaries(
    {k: st.lists(fractions, min_size=1, max_size=3).filter(lambda c: c[-1] != 0)
     for k in POSITIONS})


@settings(max_examples=100, deadline=None)
@given(refs, refs, images_st)
def test_eval_unipoly(f, g, images):
    ups = {k: UniPoly(v) for k, v in images.items()}
    assert X(f).eval_unipoly(ups).coeffs == r_eval(f, images)
    # a shared power table gives the same answers across polynomials
    powers = {}
    assert X(f).eval_unipoly(ups, powers).coeffs == r_eval(f, images)
    assert X(g).eval_unipoly(ups, powers).coeffs == r_eval(g, images)


# -- canonical equality and hashing ---------------------------------------------

def test_equal_fractions_are_one_polynomial():
    a = XPoly({((0, 1),): Fraction(2, 4), (): Fraction(6, 3)})
    b = XPoly({((0, 1),): Fraction(1, 2), (): 2})
    assert a == b and hash(a) == hash(b)
    assert (a.nums, a.den) == ({((0, 1),): 1, (): 4}, 2)


def test_insertion_order_and_monomial_order_do_not_matter():
    terms = [(((1, 1), (0, 2)), Fraction(1, 3)), (((0, 1),), -1), ((), Fraction(5, 6))]
    a = XPoly(terms)
    b = XPoly(list(reversed(terms)))
    c = XPoly({((0, 2), (1, 1)): Fraction(1, 3), ((0, 1), (2, 0)): -1, (): Fraction(5, 6)})
    assert a == b == c
    assert hash(a) == hash(b) == hash(c)


def test_cancellation_to_zero_and_to_integers():
    x0 = XPoly.var(0)
    half = XPoly({((0, 1),): Fraction(1, 2), (): Fraction(1, 3)})
    zero = half - half
    assert zero == XPoly.zero() and hash(zero) == hash(XPoly.zero())
    assert (zero.nums, zero.den) == ({}, 1)
    one = x0 + 1 - x0
    assert one == XPoly.const(1) == 1 and hash(one) == hash(XPoly.const(1))
    whole = half + half + half + half
    assert whole.den == 3 and whole == XPoly({((0, 1),): 2, (): Fraction(4, 3)})
    assert (half * 6).is_integral and (half * 6).den == 1


@pytest.mark.parametrize("c", [0, 1, -7, 10 ** 30, Fraction(1, 2), Fraction(-9, 4)])
def test_constants_equal_and_hash_like_their_scalar(c):
    for poly in (XPoly.const(c), UniPoly((c,))):
        assert poly == c and c == poly and hash(poly) == hash(c)
        assert len({poly, c}) == 1
        assert poly != c + 1
    assert XPoly.const(c) != UniPoly((c,))
    assert XPoly.var(0) + c != c and UniPoly((c, 1)) != c


def test_terms_is_a_read_only_fraction_view():
    F = XPoly({((0, 1),): Fraction(3, 4)})
    assert dict(F.terms) == {((0, 1),): Fraction(3, 4)}
    try:
        F.terms[()] = Fraction(1)
    except TypeError:
        pass
    else:
        raise AssertionError("terms accepted an assignment")
    assert F == XPoly({((0, 1),): Fraction(3, 4)})
