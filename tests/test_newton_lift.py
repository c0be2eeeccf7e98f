"""`hensel_root`'s Newton iteration against the digit-by-digit loop it replaced.

The reference below is that loop, verbatim.  Both must return the same
`ResidueClass`, or raise the same exception with the same message, on the
seeds of the six deep branches lifted to 1-120 digits, on seeded generators
with planted roots at p in {2, 3, 5, 7, 11, 13, 101, 1000003}, on close-root
generators g = (x - a)(x - a - p^d) + p^N, where v(g') = d at the roots, on
exact integer roots, on one named case per reachable refusal and on the
non-monic rescaled G(y) = g(c + p^gamma y) / p^v0 that the chain's Hensel
tail lifts, whose leading coefficient is p^(n*gamma - v0).  A 510-digit lift
near the primality bound must finish well inside a second (the digit loop
took seconds).
"""

import random
import time
from fractions import Fraction

import pytest

from valring.algebra import (INF, ResidueClass, UniPoly, ValuedFieldCtx, _ieval, _intval, _taylor,
                             hensel_root)
from valring.errors import MalformedInput, NoConvergence
from valring.keychain import build_chain

from test_value_cascade import DEEP

# -- the reference: one solved digit per step -----------------------------------------


def ref_hensel_root(ctx: ValuedFieldCtx, g: UniPoly, seed: ResidueClass, n_digits: int) -> ResidueClass:
    """Lift a simple-in-the-Hensel-sense root of g to precision p**n_digits.

    The seed must satisfy v(g(seed)) > 2 v(g'(seed)); the returned class is
    the unique root congruent to the seed.  Lifting is digit by digit, which
    keeps every valuation test exact: with d = v(g'(x)) and root == x mod
    p**k, k > d, the next digit t solves g(x)/p**(d+k) + t g'(x)/p**d == 0
    mod p, since the Taylor terms of order >= 2 have value >= 2k > d + k.
    """
    if not g.is_integral or g.is_zero:
        raise MalformedInput("hensel_root needs a nonzero integral polynomial")
    p = ctx.p
    s = seed.value % (p ** seed.precision)
    gn, dn = g.nums, g.derivative().nums
    gx = _ieval(gn, s)
    vg = _intval(p, gx)
    vdg = _intval(p, _ieval(dn, s))
    if vdg is INF:
        raise NoConvergence("derivative vanishes at seed")
    if not (vg is INF or vg > 2 * vdg):
        raise NoConvergence(
            f"seed not Hensel-liftable: v(g(s))={vg} <= 2*v(g'(s))={2 * vdg}")
    if vg is INF:
        # the seed is an exact integer root
        r = s % (p ** n_digits)
        return ResidueClass(r, n_digits)
    d = vdg
    k = vg - d  # current agreement: root == x mod p**k
    x = s
    while k < n_digits:
        unit = _ieval(dn, x) // p ** d
        digit = -(gx // p ** (d + k)) * pow(unit, -1, p) % p
        cand = x + digit * p ** k
        gx = _ieval(gn, cand)
        vc = _intval(p, gx)
        if not (vc is INF or vc >= d + k + 1):
            raise NoConvergence("no digit continues the convergent branch")
        x = cand
        k += 1
    r = x % (p ** n_digits)
    if r % (p ** min(seed.precision, n_digits)) != s % (p ** min(seed.precision, n_digits)):
        raise NoConvergence("lift left the seed residue class")
    return ResidueClass(r, n_digits)


def outcome(lift, p, g, seed, n):
    try:
        return lift(ValuedFieldCtx(p), g, seed, n)
    except (MalformedInput, NoConvergence) as e:
        return type(e), str(e)


def same(p, g, seed, n):
    got = outcome(hensel_root, p, g, seed, n)
    assert got == outcome(ref_hensel_root, p, g, seed, n), (p, g, seed, n)
    return got


def lifted(outcomes):
    return sum(isinstance(o, ResidueClass) for o in outcomes)


def poly_from_roots(*roots):
    g = UniPoly((1,))
    for r in roots:
        g = g * UniPoly((-r, 1))
    return g


# -- the cases ------------------------------------------------------------------------

@pytest.mark.parametrize("p, g, depth, branch", [(p, g, dp, b) for p, g, dp, bs in DEEP for b in bs])
def test_deep_seeds(p, g, depth, branch):
    g = UniPoly(g)
    seed = build_chain(ValuedFieldCtx(p), g, branch, depth).branch_descriptor().seed
    assert seed.precision > 1
    got = [same(p, g, seed, n) for n in range(1, 121)]
    assert lifted(got) == 120
    # the same root read from every shorter prefix of the seed
    for j in range(1, seed.precision):
        for n in (1, 2, 5, 20, 60, 120):
            same(p, g, ResidueClass(seed.value, j), n)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 101, 1000003])
def test_planted_roots(p):
    rng = random.Random(p)
    out = []
    for _ in range(150):
        a = rng.randrange(-p ** 6, p ** 6)
        cofactor = [rng.randrange(-p * p, p * p + 1) for _ in range(rng.randrange(4))]
        g = UniPoly((-a, 1)) * UniPoly(cofactor + [1])
        j = rng.randint(1, 6)
        # a seed on the planted root, or one that is off by a unit at digit j - 1
        shift = rng.choice((0, 0, rng.randrange(1, p) * p ** (j - 1)))
        out.append(same(p, g, ResidueClass(a + shift, j), rng.randint(1, 40)))
    assert 0 < lifted(out) < len(out), lifted(out)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_close_roots(p, d):
    # g = (x - a)(x - a - p^d) + p^N: two roots at distance p^d, where g' has
    # value d (d + 1 at p = 2), so each step solves fewer digits than it gains
    rng = random.Random(p * 10 + d)
    out = []
    for N in range(2 * d + 1, 2 * d + 8):
        a = rng.randrange(p ** (N + 2))
        g = UniPoly((-a, 1)) * UniPoly((-a - p ** d, 1)) + p ** N
        for root in (a, a + p ** d):
            for j in range(d + 1, N + 3):
                for n in (1, d + 1, N, N + 5, 3 * N + 20):
                    out.append(same(p, g, ResidueClass(root, j), n))
    assert lifted(out) > len(out) // 4, lifted(out)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_exact_integer_roots(p):
    # the seed is the root itself: no step runs and the class is the root's
    for a in (1 + p ** 6, 1 + p ** 2 + p ** 4 + p ** 6, 2 * p ** 3):
        g = poly_from_roots(a, a + p, -a)
        for j in (7, 9, 12):
            for n in range(1, 21):
                got = same(p, g, ResidueClass(a, j), n)
                assert got == ResidueClass(a % p ** n, n)


def rescaled(p, g, c, gamma):
    """G(y) = g(c + p^gamma y) / p^v0, v0 the least value of g's Taylor
    digits d_j at c raised along slope -gamma, with d_j p^(j*gamma - v0)
    for coefficients; None unless that line is least at 0 and 1 only, where
    G is integral with a linear residual."""
    d = _taylor(g.nums, c)
    line = {j: _intval(p, dj) + j * gamma for j, dj in enumerate(d) if dj}
    v0 = min(line.values())
    if [j for j, v in line.items() if v == v0] != [0, 1]:
        return None
    G = UniPoly([dj * p ** (j * gamma) // p ** v0 for j, dj in enumerate(d)])
    assert G.nums[-1] == p ** (g.degree * gamma - v0) and G.den == 1
    return G


def lift_rescaled(p, G):
    y0 = -G.nums[0] * pow(G.nums[1], -1, p) % p
    got = [same(p, G, ResidueClass(y0, 1), n) for n in range(1, 41)]
    assert lifted(got) == 40
    # reseeded from its own lift, as the tail doubles its precision
    for j in (2, 5, 20):
        same(p, G, ResidueClass(got[j - 1].value, j), 2 * j)
    # and a seed off the root, which G's unit derivative refuses
    same(p, G, ResidueClass(y0 + 1, 1), 10)
    return got


@pytest.mark.parametrize("p, g, branch", [(p, g, b) for p, g, _, bs in DEEP for b in bs]
                         + [(3, (1, -9, 0, 1), [[0, 0]]), (7, (-18, 9, -5, 44, 1), [[0, 0]]),
                            (2, (1, 2, 4, 0, 1), [[0, 0]])])
def test_rescaled_tail_polynomials(p, g, branch):
    # G at every key of a built chain whose line is least at 0 and 1 only:
    # the tail's start and the later keys of its plateau
    chain = build_chain(ValuedFieldCtx(p), UniPoly(g), branch, 8)
    found = 0
    for ent in chain.entries[1:]:
        G = rescaled(p, chain.g, -ent.Q.nums[0], ent.gamma)
        if G is not None:
            assert not G.is_monic
            lift_rescaled(p, G)
            found += 1
    assert found >= 6


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
def test_rescaled_planted_roots(p):
    # g = (x - a)(x - a - p^e w) h(x), e < gamma, with h(a) a unit: a is the
    # one root in the disc of c = a + p^gamma t, so G is integral with a
    # linear residual and leading coefficient p^(deg g * gamma - v0)
    rng = random.Random(1000 + p)
    done = 0
    while done < 60:
        a, gamma = rng.randrange(-p ** 5, p ** 5), rng.randint(1, 4)
        e, w = rng.randrange(gamma), rng.randrange(1, p ** 2)
        h = UniPoly([rng.randrange(-p * p, p * p + 1) for _ in range(rng.randrange(3))] + [1])
        g = UniPoly((-a, 1)) * UniPoly((-a - p ** e * w, 1)) * h
        if _ieval(h.nums, a) % p == 0:
            continue
        c = a + p ** gamma * rng.randrange(-p ** 3, p ** 3)
        G = rescaled(p, g, c, gamma)
        if G is None:
            continue
        got = lift_rescaled(p, G)
        # the lifted root is the planted one: c + p^gamma y = a
        assert not G.is_monic and got[-1].value == (a - c) // p ** gamma % p ** 40
        done += 1


@pytest.mark.parametrize("name, p, g, seed, n, expected", [
    ("non-integral", 2, UniPoly((Fraction(1, 2), 0, 1)), ResidueClass(1, 1), 4,
     (MalformedInput, "hensel_root needs a nonzero integral polynomial")),
    ("zero", 2, UniPoly(), ResidueClass(1, 1), 4,
     (MalformedInput, "hensel_root needs a nonzero integral polynomial")),
    ("derivative vanishes", 3, UniPoly((-4, 0, 1)), ResidueClass(0, 1), 4,
     (NoConvergence, "derivative vanishes at seed")),
    ("not liftable", 2, UniPoly((-3, 0, 1)), ResidueClass(1, 1), 4,
     (NoConvergence, "seed not Hensel-liftable: v(g(s))=1 <= 2*v(g'(s))=2")),
    ("left the seed class", 5, UniPoly((-7, 1)), ResidueClass(17, 2), 4,
     (NoConvergence, "lift left the seed residue class")),
])
def test_refusals(name, p, g, seed, n, expected):
    assert same(p, g, seed, n) == expected, name


def test_certificate_read_before_reduction():
    # at p = 2, v(g(15)) = 11 and d = v(g'(15)) = 3, so root == 15 mod 2^8;
    # x mod 2 = 1 has v(g(1)) = 2, so the certificate v(g(x)) >= k + d must
    # be read on x before it is reduced to the requested digit
    g = UniPoly((2153, -22, 1))
    assert same(2, g, ResidueClass(15, 4), 1) == ResidueClass(1, 1)


def test_510_digit_lift_is_fast():
    # the depth-256 worst case: x^2 - 2 near the primality bound
    p = 3317044064679887385961801
    g = UniPoly((-2, 0, 1))
    ctx = ValuedFieldCtx(p)
    seed = build_chain(ctx, g, [[0, 0]], 2).branch_descriptor().seed
    start = time.perf_counter()
    r = hensel_root(ctx, g, seed, 510)
    assert time.perf_counter() - start < 1.0
    assert r.precision == 510 and (r.value ** 2 - 2) % p ** 510 == 0
