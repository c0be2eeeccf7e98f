"""The integer value cascade against the UniPoly cascade it replaced.

The reference functions below are the evaluator as it ran on `UniPoly`
expansion digits (every digit built over its reduced denominator and valued
at constants as v(numerator) - v(denominator)).  `value_below`, `truncate`
and `s_set` on the oracle route and on the recursive one
(`conftest.recursive_line`) must agree with them on the worked chains (full
and collapsed), the six deep branches of the benchmark and a seeded sample
of random generators.  Each augmentation step hands g's expansion in the new
key to the chain it builds; that cache must equal a fresh expansion.  The
full expansions, which cascade int digits over f's one den, must equal the
cascade as it ran on `UniPoly` digits summed over the lcm of their
denominators, on every chain here, for `full_expansion` (also where an I1
relation starts from strong monicity's digits) and for
`expansion_from_index_tuple`.
"""

import random
from dataclasses import replace
from fractions import Fraction
from functools import cache
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from valring.algebra import INF, UniPoly, ValuedFieldCtx, _iexpand, _intval, is_finite
from valring.errors import InsufficientDepth, MalformedInput, MathRejection, OracleUnavailable
from valring.expandval import (FullExpansion, SSet, expansion_from_index_tuple, full_expansion,
                               s_set, truncate)
from valring.keychain import IMAX, _g_expansion, build_chain, collapse, segment, strongly_monic
from valring.xpoly import XPoly, mu0

from conftest import (BRANCH_C, CTX2, GA, GB, GC, GD, qexpand_ref, recursive_line,
                      recursive_truncate)

# -- the reference: the cascade on UniPoly digits ------------------------------


def ref_value_below(chain, k, f):
    if f.is_zero:
        return INF
    if k < 0 or f.degree == 0:
        assert f.degree <= 0
        p = chain.ctx.p
        return _intval(p, f.nums[0]) - _intval(p, f.den)
    ent = chain.entries[k]
    if not is_finite(ent.gamma) or f.degree < ent.Q.degree:
        return ref_value_below(chain, k - 1, f)
    return min(ref_value_below(chain, k - 1, fj) + j * ent.gamma
               for j, fj in enumerate(qexpand_ref(f, ent.Q)) if not fj.is_zero)


def ref_line(chain, i, f, recursive):
    ent = chain.entry(i)
    top = len(chain.entries) - 1
    out = {}
    for j, fj in enumerate(qexpand_ref(f, ent.Q)):
        if fj.is_zero:
            continue
        if recursive or fj.degree == 0:
            v = ref_value_below(chain, top, fj)
        else:
            v = chain.nu(fj).value
        out[j] = v + j * ent.gamma
    return out


def ref_truncate(chain, i, f, recursive):
    return min(ref_line(chain, i, f, recursive).values(), default=INF)


def _attaining(i, vals):
    m = min(vals.values())
    return SSet(i, tuple(sorted(j for j, v in vals.items() if v == m)))


def ref_s_set(chain, i, f, recursive):
    return _attaining(i, ref_line(chain, i, f, recursive))


def recursive_s_set(chain, i, f):
    return _attaining(i, recursive_line(chain, i, f))


# -- the chains ------------------------------------------------------------------

DEEP = (  # the benchmark's deep workload: three generators, two branches each
    (2, (7, 0, 1), 24, ([[0, 0]], [[1, 0]])),
    (3, (2, 0, 1), 16, ([[0, 0]], [[0, 1]])),
    (5, (1, 0, 1), 16, ([[0, 0]], [[0, 1]])),
)


def _fuzz_chains(n=12):
    """Chains of seeded random monic generators, as in test_fuzz."""
    rng = random.Random(20261019)
    out = []
    while len(out) < n:
        p = rng.choice((2, 3, 5, 7))
        deg = rng.choice([d for d in range(2, 5) if p ** d <= 7 ** 4])
        c0 = 0
        while c0 % p == 0:
            c0 = rng.randrange(-p * p, p * p + 1)
        g = UniPoly([c0] + [rng.randrange(-p * p, p * p + 1) for _ in range(deg - 1)] + [1])
        try:
            out.append((f"fuzz{len(out)}", build_chain(ValuedFieldCtx(p), g, [[0, 0]] * 8, 8)))
        except (MathRejection, MalformedInput):
            continue
    return out


@cache
def chains():
    named = [("A", build_chain(CTX2, GA)), ("B", build_chain(CTX2, GB)),
             ("C", build_chain(CTX2, GC, BRANCH_C, depth=4)), ("D", build_chain(CTX2, GD))]
    named += [(f"{name}-collapsed", collapse(chain)) for name, chain in named]
    for p, g, depth, branches in DEEP:
        for branch in branches:
            named.append((f"deep-{p}-{branch}",
                          build_chain(ValuedFieldCtx(p), UniPoly(g), branch, depth)))
    return tuple(named + _fuzz_chains())


def rationals(max_den=12):
    return st.builds(Fraction, st.integers(-10 ** 6, 10 ** 6), st.integers(1, max_den))


def polys(max_deg=5):
    return st.lists(rationals(), min_size=0, max_size=max_deg + 1).map(UniPoly)


CHAIN_INDEX = st.integers(0, 10 ** 6)


def _pick(index):
    named = chains()
    return named[index % len(named)]


# -- value_below ------------------------------------------------------------------

@settings(max_examples=150, deadline=None)
@given(CHAIN_INDEX, polys())
def test_value_below_matches_unipoly_cascade(index, f):
    name, chain = _pick(index)
    for k in range(-1 if f.degree <= 0 else 0, len(chain.entries)):
        assert chain.value_below(k, f) == ref_value_below(chain, k, f), (name, k, f)


def test_value_below_on_every_chain_and_level():
    rng = random.Random(7)
    for name, chain in chains():
        for _ in range(8):
            f = UniPoly([Fraction(rng.randrange(-999, 1000), rng.randrange(1, 40))
                         for _ in range(chain.g.degree + 2)])
            for k in range(len(chain.entries)):
                assert chain.value_below(k, f) == ref_value_below(chain, k, f), (name, k, f)


# -- truncate and s_set, both routes ---------------------------------------------------

def outcome(fn, *args):
    """The value of fn(*args), or the oracle's refusal (a truncated plateau
    of degree > 1)."""
    try:
        return fn(*args)
    except OracleUnavailable as e:
        return "oracle-unavailable", str(e)


@settings(max_examples=100, deadline=None)
@given(CHAIN_INDEX, polys())
def test_truncate_and_s_set_match_reference(index, f):
    name, chain = _pick(index)
    for i in chain.star_positions:
        for recursive, trunc, sset in ((True, recursive_truncate, recursive_s_set),
                                       (False, truncate, s_set)):
            args = (chain, i, f)
            assert outcome(trunc, *args) == outcome(ref_truncate, *args, recursive), \
                (name, i, recursive, f)
            if not f.is_zero:
                assert outcome(sset, *args) == outcome(ref_s_set, *args, recursive), \
                    (name, i, recursive, f)


# -- one g-expansion per augmentation step ------------------------------------------

def _fresh(chain):
    """g's expansion in the top key and its value line, by the reference."""
    top = chain.entries[-1]
    exp = qexpand_ref(chain.g, top.Q)
    k = len(chain.entries) - 2
    return exp, {j: ref_value_below(chain, k, fj) + j * top.gamma
                 for j, fj in enumerate(exp) if not fj.is_zero}


def _held(got):
    """A held (int digits, line) pair with its digits as UniPolys."""
    digits, line = got
    return tuple(UniPoly(d) for d in digits), line


@pytest.mark.parametrize("depth", [2, 3, 6])
def test_prefix_chains_carry_their_g_expansion(depth):
    for p, g, _, branches in DEEP:
        for branch in branches:
            chain = build_chain(ValuedFieldCtx(p), UniPoly(g), branch, depth)
            assert not chain.complete
            assert _held(chain.cache()["g_expansion"]) == _fresh(chain)


def test_every_full_prefix_chain_carries_its_g_expansion():
    for name, chain in chains():
        if chain.mode == "full" and not chain.complete:
            assert _held(chain.cache()["g_expansion"]) == _fresh(chain), name


def test_g_expansion_computed_on_a_miss():
    # a complete chain is never augmented, so its last step seeds nothing; a
    # collapsed chain and a copy start with an empty cache
    for name, chain in chains():
        if chain.complete:
            assert "g_expansion" not in chain.cache(), name
            continue
        for cold in (collapse(chain), replace(chain)):
            assert "g_expansion" not in cold.cache(), name
            assert _held(_g_expansion(cold)) == _fresh(cold), name
            assert _held(cold.cache()["g_expansion"]) == _fresh(cold), name


# -- the integer expansion ---------------------------------------------------------

@settings(max_examples=200)
@given(st.lists(st.integers(-10 ** 9, 10 ** 9), max_size=12),
       st.lists(st.integers(-10 ** 4, 10 ** 4), min_size=1, max_size=4))
def test_iexpand_reconstructs(nums, low):
    while nums and not nums[-1]:
        nums.pop()
    q = UniPoly(low + [1])
    digits = _iexpand(nums, q.nums)
    assert all(not d or d[-1] for d in digits)
    assert all(len(d) < len(q.nums) for d in digits)
    back = UniPoly()
    for j, d in enumerate(digits):
        back = back + UniPoly(d) * q ** j
    assert back == UniPoly(nums)
    assert tuple(UniPoly(d) for d in digits) == qexpand_ref(UniPoly(nums), q)


# -- full expansions: the cascade on UniPoly digits ----------------------------------

def ref_cascade(chain, pending, k):
    """One cascade step on (UniPoly coefficient, exponents) pairs: every
    nonconstant coefficient expanded in Qt_k, (k, j) appended."""
    ent = chain.entries[k]
    nxt = []
    for c, mono in pending:
        if c.degree == 0:
            nxt.append((c, mono))
            continue
        for j, d in enumerate(qexpand_ref(c, ent.Q, 1 if ent.a is None else ent.a)):
            if not d.is_zero:
                nxt.append((d, mono + ((k, j),) if j else mono))
    return nxt


def ref_assemble(chain, anchor, pending):
    den = lcm(*(c.den for c, _ in pending))
    nums = {}
    for c, mono in pending:
        m = mono[::-1]
        nums[m] = nums.get(m, 0) + c.nums[0] * (den // c.den)
    poly = XPoly._make(nums, den)
    appearing = sorted({k for m in poly.nums for k, _ in m}, reverse=True)
    return FullExpansion(anchor, poly, mu0(chain.ctx, poly), tuple(appearing))


def ref_pick(chain, below_plateau, polys):
    seg = segment(chain)
    for k in chain.star_positions:
        if seg.q_of[k] >= below_plateau:
            break
        if all(truncate(chain, k, c) == chain.nu(c).value for c in polys):
            return k
    raise InsufficientDepth("no common exact position")


def ref_full_expansion(chain, i, f):
    seg = segment(chain)
    pending = ref_cascade(chain, [(f, ())], i)
    level_pos = i
    while nonconst := [c for c, _ in pending if c.degree >= 1]:
        level_pos = ref_pick(chain, seg.q_of[level_pos], nonconst)
        pending = ref_cascade(chain, pending, level_pos)
    return ref_assemble(chain, i, pending)


def ref_from_index_tuple(chain, f, anchor, index_tuple):
    pending = [(f, ())]
    for k in sorted(set(index_tuple) | {anchor}, reverse=True):
        pending = ref_cascade(chain, pending, k)
    if any(c.degree >= 1 for c, _ in pending):
        raise MalformedInput("index tuple does not reach constant coefficients")
    return ref_assemble(chain, anchor, pending)


def settled(fn, *args):
    """fn(*args), or the kind of its refusal."""
    try:
        return fn(*args)
    except (InsufficientDepth, MalformedInput, OracleUnavailable) as e:
        return type(e).__name__


@pytest.mark.parametrize("name", [name for name, _ in chains()])
def test_full_expansions_match_unipoly_cascade(name):
    chain = dict(chains())[name]
    rng = random.Random(name)
    fs = [chain.g] + [ent.Qt for ent in chain.entries[1:] if is_finite(ent.gamma)]
    fs += [UniPoly([Fraction(rng.randrange(-999, 1000), rng.randrange(1, 9))
                    for _ in range(chain.g.degree + 1)]) for _ in range(3)]
    built = 0
    for i in chain.star_positions:
        for f in fs:
            got = settled(full_expansion, chain, i, f)
            assert got == settled(ref_full_expansion, chain, i, f), (name, i, f)
            if type(got) is str:
                continue
            built += 1
            tuples = {got.index_tuple, tuple(range(i, -1, -1)), (0,), ()}
            for tup in tuples:
                assert settled(expansion_from_index_tuple, chain, f, i, tup) == \
                    settled(ref_from_index_tuple, chain, f, i, tup), (name, i, f, tup)
    assert built


@pytest.mark.parametrize("name", [name for name, _ in chains()])
def test_i1_expansions_from_strong_monicity_match_unipoly_cascade(name):
    chain = dict(chains())[name]
    pairs = [(i, ell) for i, ell, _ in segment(chain).succ_pairs if ell != IMAX]
    for i, ell in pairs:
        passed, witness = strongly_monic(chain, ell, i)
        qt = chain.entries[ell].Qt
        assert passed
        assert settled(full_expansion, chain, i, qt, witness["digits"]) == \
            settled(ref_full_expansion, chain, i, qt), (name, i, ell)
