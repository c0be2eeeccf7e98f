"""Each value computed once, against the routes that computed it again.

`expandval.truncations` is the row of truncations at every star position
that `eval` and `check` read; it must equal `truncate` position by position.
`verify.completeness_probe` reads that row when it is handed over and must
find the same witness, or raise the same rejection, as when it computes its
own truncations.  `algebra._nu_hensel` evaluates h at the cached root first
and builds the resultant bound only when the root does not certify the
value; the reference below is the bound-first oracle it replaced, and both
must return the same `OracleValue` or raise the same refusal, except where
the bound is degenerate and the root certifies the value.  The chains are
those of `test_value_cascade`: the worked contexts A-D (full and
collapsed), the six deep branches of the benchmark and a seeded sample of
random generators.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import valring.algebra as algebra
from valring.algebra import (INF, BranchDescriptor, OracleValue, ResidueClass, UniPoly,
                             ValuedFieldCtx, _ieval, _intval, _monic_gcd, hensel_root,
                             is_finite, nu_oracle, pval, resultant)
from valring.cli import JobConfig, run
from valring.errors import MalformedInput, MathRejection, OracleUnavailable
from valring.expandval import truncate, truncations
from valring.keychain import build_chain
from valring.verify import completeness_probe

from test_value_cascade import CHAIN_INDEX, DEEP, _pick, chains, outcome, polys

X = UniPoly.x()


# -- the truncation row -------------------------------------------------------------

def by_position(chain, f):
    return [truncate(chain, i, f) for i in chain.star_positions]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(CHAIN_INDEX, polys())
@example(0, UniPoly())
def test_row_matches_truncate(index, f):
    name, chain = _pick(index)
    assert outcome(truncations, chain, f) == outcome(by_position, chain, f), (name, f)


def test_row_on_every_chain():
    rng = random.Random(16)
    for name, chain in chains():
        for _ in range(6):
            f = UniPoly([Fraction(rng.randrange(-999, 1000), rng.randrange(1, 40))
                         for _ in range(rng.randrange(1, chain.g.degree + 3))])
            assert outcome(truncations, chain, f) == outcome(by_position, chain, f), (name, f)


# -- the completeness probe on the row -------------------------------------------------

def probe(chain, f, vals=None):
    """The probe's witness, or the type and message of what it raised."""
    try:
        return completeness_probe(chain, f, vals)
    except (MathRejection, MalformedInput, AssertionError) as e:
        return type(e).__name__, str(e)


def probe_both(name, chain, f):
    try:
        vals = truncations(chain, f)
    except OracleUnavailable:
        return  # check_doc's monotonicity probe raises first
    assert probe(chain, f, vals) == probe(chain, f), (name, f)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(CHAIN_INDEX, polys())
@example(0, UniPoly())
@example(0, UniPoly((5,)))
def test_probe_reads_the_row(index, f):
    probe_both(*_pick(index), f)


def test_probe_reads_the_row_on_check_inputs():
    # the probe's inputs in check_doc: integer polynomials of degree <= deg g
    rng = random.Random(17)
    for name, chain in chains():
        for _ in range(10):
            f = UniPoly([rng.randrange(-64, 65) for _ in range(chain.g.degree + 1)])
            probe_both(name, chain, f)


# -- the root-first Hensel oracle ------------------------------------------------------

def ref_nu_hensel(ctx, g, seed, h, cache):
    """The bound-first oracle: the resultant bound before the root, always."""
    hh = UniPoly._raw(h.nums, 1)
    bound = pval(ctx, resultant(g, hh))
    common = None
    if bound is INF:
        common = _monic_gcd(g, hh)
        bound = pval(ctx, resultant(g // common, hh))
        if bound is INF:
            raise OracleUnavailable("resultant bound degenerate: g and h share a factor")
    margin = 2
    cap = int(bound) + margin + 8
    root = cache.get("hensel_root")
    if root is None:
        root = hensel_root(ctx, g, seed, max(seed.precision + 2, 8))
    n = root.precision
    while True:
        if root.precision < n:
            root = hensel_root(ctx, g, root, n)
        cache["hensel_root"] = root
        val = _intval(ctx.p, _ieval(h.nums, root.value))
        if val is not INF and val < n - margin:
            return val - _intval(ctx.p, h.den)
        if n > cap:
            if common is not None and is_finite(ref_nu_hensel(ctx, g, seed, g // common, cache)):
                return INF
            raise OracleUnavailable("valuation exceeds its certified bound")
        n = 2 * n


def ref_oracle(ctx, g, branch, h, cache):
    if h.is_zero or (h.degree >= g.degree and (h % g).is_zero):
        return OracleValue(INF, "divisibility")
    return OracleValue(ref_nu_hensel(ctx, g, branch.seed, h % g, cache), "hensel")


def oracle_outcome(fn, *args):
    try:
        return fn(*args)
    except MathRejection as e:
        return type(e).__name__, str(e)


DEGENERATE = ("OracleUnavailable", "resultant bound degenerate: g and h share a factor")


def ref_outcome(ctx, g, branch, h, cache):
    """The bound-first oracle's outcome, but where it refuses a degenerate
    bound (only g = (x - 1)^2 (x - 3), seeded at its exact root eta = 3)
    the value v_5(h(3)), which the root certifies."""
    got = oracle_outcome(ref_oracle, ctx, g, branch, h, cache)
    return OracleValue(pval(ctx, h(3)), "hensel") if got == DEGENERATE else got


def _hensel_cases():
    """(ctx, g, branch): the deep branches, whose g is squarefree and
    irreducible over Q; a squarefree reducible g on each of its roots; and a
    g with a repeated factor, seeded at its simple root."""
    out = []
    for p, g, depth, branches in DEEP:
        for branch in branches:
            chain = build_chain(ValuedFieldCtx(p), UniPoly(g), branch, depth)
            out.append((chain.ctx, chain.g, chain.branch_descriptor()))
    split = (X + 5) * (X - 2)                    # roots -5 and 2 at p = 3
    out.append((ValuedFieldCtx(3), split, BranchDescriptor("hensel", ResidueClass(238, 5))))
    out.append((ValuedFieldCtx(3), split, BranchDescriptor("hensel", ResidueClass(2, 1))))
    double = (X - 1) ** 2 * (X - 3)
    out.append((ValuedFieldCtx(5), double, BranchDescriptor("hensel", ResidueClass(3, 1))))
    return out


HENSEL_CASES = _hensel_cases()


def _factors(g):
    if g == (X + 5) * (X - 2):
        return (X + 5, X - 2)
    if g == (X - 1) ** 2 * (X - 3):
        return (X - 1, X - 3, (X - 1) ** 2)
    return ()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(0, 10 ** 6), polys(4), st.integers(0, 3))
def test_root_first_oracle_matches_bound_first(case, h, times):
    ctx, g, branch = HENSEL_CASES[case % len(HENSEL_CASES)]
    factors = _factors(g)
    if factors and times:
        h = h * factors[times % len(factors)]
    got = oracle_outcome(nu_oracle, ctx, g, branch, h, {})
    assert got == ref_outcome(ctx, g, branch, h, {}), (g, branch, h)


def test_root_first_oracle_with_shared_caches():
    # one cache per route across a run of calls, as a chain keeps it
    rng = random.Random(18)
    for ctx, g, branch in HENSEL_CASES:
        new, old = {}, {}
        for _ in range(40):
            f = UniPoly([Fraction(rng.randrange(-10 ** 6, 10 ** 6), rng.randrange(1, 9))
                         for _ in range(rng.randrange(1, 5))])
            for h in (f, f * X ** rng.randrange(0, 3)) + tuple(f * q for q in _factors(g)):
                got = oracle_outcome(nu_oracle, ctx, g, branch, h, new)
                assert got == ref_outcome(ctx, g, branch, h, old), (g, h)


def test_repeated_factor_reads_the_exact_root():
    # g = (x - 1)^2 (x - 3) seeded at 3 has the exact root eta = 3, where
    # x - 1 is a unit: the root certifies nu(x - 1) = v_5(2) = 0 although
    # Res(g / gcd(g, x - 1), x - 1) = 0 makes the bound degenerate.  h =
    # (x - 1)(x - 3) vanishes at the root and its bound is degenerate too,
    # so the oracle refuses it
    ctx, g = ValuedFieldCtx(5), (X - 1) ** 2 * (X - 3)
    branch = BranchDescriptor("hensel", ResidueClass(3, 1))
    cache = {}
    assert nu_oracle(ctx, g, branch, X, cache) == OracleValue(0, "hensel")
    assert cache["hensel_root"].value == 3
    assert nu_oracle(ctx, g, branch, X - 1, cache) == \
        OracleValue(pval(ctx, 2), "hensel") == OracleValue(0, "hensel")
    with pytest.raises(OracleUnavailable, match="resultant bound degenerate"):
        nu_oracle(ctx, g, branch, (X - 1) * (X - 3), cache)


def test_check_on_deep_branches_builds_few_resultants(monkeypatch):
    # every oracle call of a deep check job is certified by the cached root
    # but the one whose value reaches the root's precision
    calls = {"resultant": 0, "nu_hensel": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(algebra, "resultant", counted("resultant", algebra.resultant))
    monkeypatch.setattr(algebra, "_nu_hensel", counted("nu_hensel", algebra._nu_hensel))
    for p, g, depth, branches in DEEP:
        for branch in branches:
            calls.update(resultant=0, nu_hensel=0)
            run("check", JobConfig({"p": p, "g": list(g), "branch": branch,
                                    "depth": depth, "seed": 1}))
            assert calls["nu_hensel"] >= 40 and calls["resultant"] <= 1, (p, branch, calls)
