"""The one-root Hensel tail of `build_chain` against step-by-step augmentation.

Once the top key is x - c with gamma >= 1 and g's value line is least at
indices 0 and 1 only, g has one root eta in the key's disc and `build_chain`
writes the remaining keys from Hensel digits (`_hensel_tail`) instead of
calling `augment`.  The reference below is the loop it replaced, over the
public `augment`.  Both must give equal chains (entries with their residue
data, status, branch log and the cached g-expansion) or the same exception
on the six deep branches of the benchmark at depths 1-40, every config of
the construct pool, seeded random generators and generators with two exact
integer roots, whose reducibility rejection lands inside the tail, at the
depth and one step past it.  The tail's regimes get named generators: tails
that start with gamma = v(g'(c)), where Newton's iteration on g itself
cannot start and the tail must decide the depth cut, one whose cut passes at
gamma_last = v(g'(c)), one rejected as reducible inside the tail, and
x^2 - 2 near the primality bound.  The deep chains' keys are also checked
against `hensel_root`: c_i = eta mod p^(gamma_(i-1) + 1) and
gamma_i = v(eta - c_i); and the tail lifts eta once (few `hensel_root`
calls, no other in `build_chain`) and expands g once, at the last key.
"""

import json
import random
from functools import cache
from math import ceil, log2

import pytest

from valring.algebra import ResidueClass, UniPoly, ValuedFieldCtx, _intval, hensel_root
from valring.cli import JobConfig
from valring.errors import (AmbiguousBranch, InsufficientDepth, MalformedInput, MathRejection,
                            NoConvergence)
from valring.keychain import FULL, augment, build_chain, collapse, gauss_start

from test_index_identity import _load_jobs
from test_value_cascade import DEEP

# -- the reference: the augmentation loop --------------------------------------


def ref_build_chain(ctx, g, branch_selector="unique", depth=16, mode=FULL):
    """`build_chain` as it ran before the tail: one `augment` per step."""
    if depth < 1:
        raise MalformedInput("depth must be >= 1")
    chain = gauss_start(ctx, g)
    picks = list(branch_selector) if branch_selector != "unique" else []
    while not chain.complete:
        at_depth, used = len(chain.entries) >= depth, len(chain.branch_log)
        try:
            nxt = augment(chain, tuple(picks[used]) if used < len(picks) else None)
        except AmbiguousBranch:
            if at_depth:
                break
            raise
        if at_depth and not nxt.complete:
            break
        chain = nxt
    if not chain.complete and chain.entries[-1].Q.degree == 1:
        seed = chain.branch_descriptor().seed
        try:
            hensel_root(ctx, g, seed, seed.precision)
        except NoConvergence:
            raise InsufficientDepth(
                f"depth {depth} is too shallow: the prefix pins no branch root") from None
    return collapse(chain) if mode != FULL else chain


def outcome(build, *args):
    try:
        chain = build(*args)
    except (MathRejection, MalformedInput) as e:
        return type(e), str(e)
    return chain, chain.cache().get("g_expansion")


REDUCIBLE = (MalformedInput, "candidate key divides g; g is reducible")


def same(*args):
    got = outcome(build_chain, *args)
    assert got == outcome(ref_build_chain, *args), args
    return got


# -- the cases ----------------------------------------------------------------------

@pytest.mark.parametrize("p, g, branch", [(p, g, b) for p, g, _, bs in DEEP for b in bs])
def test_deep_chains(p, g, branch):
    for depth in range(1, 41):
        chain, _ = same(ValuedFieldCtx(p), UniPoly(g), branch, depth)
        assert chain is InsufficientDepth or len(chain.entries) == depth


@cache
def construct_configs():
    jobs = _load_jobs()
    out = []
    for index in range(jobs.POOL_SIZE["construct"]):
        try:
            cfg = JobConfig(json.loads(jobs.construct_job(index).text))
        except (MathRejection, MalformedInput):
            continue
        out.append((cfg.ctx, cfg.g, cfg.branch, cfg.depth, cfg.mode))
    return out


def test_construct_pool():
    assert len(construct_configs()) > 100
    for args in construct_configs():
        same(*args)


def test_seeded_generators(monkeypatch):
    from valring import keychain
    tail, calls = keychain._hensel_tail, []
    monkeypatch.setattr(keychain, "_hensel_tail",
                        lambda chain, depth: calls.append(depth) or tail(chain, depth))
    rng = random.Random(20261019)
    ran = rejected = 0
    for _ in range(3000):
        p = rng.choice((2, 3, 5, 7, 11, 13))
        deg = rng.randint(2, 5)
        c0 = 0
        while c0 % p == 0:
            c0 = rng.randrange(-p * p, p * p + 1)
        g = UniPoly([c0] + [rng.randrange(-p * p, p * p + 1) for _ in range(deg - 1)] + [1])
        picks = [rng.choice(((0, 0), (0, 0), (1, 0), (0, 1))) for _ in range(6)]
        before = len(calls)
        got = same(ValuedFieldCtx(p), g, picks, rng.randint(1, 12))
        if len(calls) > before:
            ran += 1
            rejected += got == REDUCIBLE
    # the tail ran on hundreds of them and rejected some as reducible
    assert ran > 300 and rejected > 5, (ran, rejected)


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("digits", [(0, 6), (0, 2, 4, 6, 8)])
def test_exact_root_generators(p, digits):
    # g = (x - r)(x - s), s = r + p, both roots integers: on either branch
    # the tail meets the root after one key per nonzero digit past its
    # start, and g(root) = 0 rejects g there.  Shallower depths return the
    # prefix; the depth whose past-depth candidate is the root rejects, and
    # so does every deeper one, from inside the tail
    r = sum(p ** k for k in digits)
    g = UniPoly((r * (r + p), -(2 * r + p), 1))
    firsts = set()
    for picks in ([[0, 0]] * 3, [[0, 1]] * 3, [[1, 0]] * 3):
        row = [same(ValuedFieldCtx(p), g, picks, depth) for depth in range(2, 13)]
        if REDUCIBLE not in row:
            continue
        first = row.index(REDUCIBLE)
        assert all(len(c.entries) == depth for depth, (c, _) in enumerate(row[:first], 2))
        assert row[first:] == [REDUCIBLE] * (len(row) - first)
        firsts.add(first + 2)
    assert firsts and (len(digits) == 2 or min(firsts) > 4), firsts


# -- the maths of the tail ----------------------------------------------------------

@pytest.mark.parametrize("p, g, branch", [(p, g, b) for p, g, _, bs in DEEP for b in bs])
def test_keys_are_hensel_digits(p, g, branch):
    ctx = ValuedFieldCtx(p)
    chain = build_chain(ctx, UniPoly(g), branch, 40)
    top = chain.entries[-1]
    seed = ResidueClass(-top.Q.nums[0] % p ** top.gamma, top.gamma)
    eta = hensel_root(ctx, chain.g, seed, top.gamma + 20).value
    for prev, ent in zip(chain.entries, chain.entries[1:]):
        c = -ent.Q.nums[0]
        assert (eta - c) % p ** (prev.gamma + 1) == 0
        assert _intval(p, eta - c) == ent.gamma
        assert ent.gamma > prev.gamma


# -- the tail's regimes ----------------------------------------------------------------

def tail_starts(monkeypatch):
    """Record (c, gamma, S = v(g'(c))) at the top key of every tail start."""
    from valring import keychain
    tail, starts = keychain._hensel_tail, []

    def spy(chain, depth):
        top = chain.entries[-1]
        line = keychain._g_expansion(chain)[1]
        starts.append((-top.Q.nums[0], top.gamma, line[1] - top.gamma))
        return tail(chain, depth)
    monkeypatch.setattr(keychain, "_hensel_tail", spy)
    return starts


def regime_row(p, g, depths):
    return [same(ValuedFieldCtx(p), UniPoly(g), [[0, 0]] * 4, depth) for depth in depths]


@pytest.mark.parametrize("p, g", [(3, (1, -9, 0, 1)), (7, (-18, 9, -5, 44, 1))])
def test_tail_starting_at_gamma_equal_to_S(monkeypatch, p, g):
    # v(g'(c)) = gamma = 1 at the tail's start: v(g(c)) = 2 is not above
    # 2 v(g'(c)), so Newton's iteration on g cannot start there; the tail's
    # rescaled G has a unit derivative.  Depth 2 stops on that key, a cut the
    # tail decides; from depth 3 the next key has gamma > S and the cut passes
    starts = tail_starts(monkeypatch)
    row = regime_row(p, g, range(1, 21))
    assert row[0][0] is InsufficientDepth and row[1][0] is InsufficientDepth
    assert all(len(c.entries) == depth for depth, (c, _) in enumerate(row[2:], 3))
    assert {(gamma, S) for _, gamma, S in starts} == {(1, 1)} and len(starts) == 19


def test_cut_passes_at_gamma_equal_to_S(monkeypatch):
    # x^4 + 4x^2 + 2x + 1 at p = 2: the tail starts at x - c, c = -1, with
    # gamma = S = 1.  At depth 2 the chain stops on that key, yet the cut
    # passes: s = c mod 2 = 1 lies closer to eta than c does
    starts = tail_starts(monkeypatch)
    row = regime_row(2, (1, 2, 4, 0, 1), range(1, 21))
    assert row[0][0] is InsufficientDepth
    assert all(len(c.entries) == depth for depth, (c, _) in enumerate(row[1:], 2))
    assert set(starts) == {(-1, 1, 1)}
    assert row[1][0].entries[-1].gamma == 1


def test_reducible_inside_the_tail(monkeypatch):
    # (x - 1)(x^2 - 2x + 4) at p = 3: the tail's root is the integer 1, so
    # from depth 2 on its candidate key is x - 1 and g is rejected there
    starts = tail_starts(monkeypatch)
    row = regime_row(3, (-4, 6, -3, 1), range(1, 21))
    assert row[0][0] is InsufficientDepth
    assert row[1:] == [REDUCIBLE] * 19 and len(starts) == 19


def test_primality_bound_generator(monkeypatch):
    # x^2 - 2 at p = 3317044064679887385961801, the CLI's largest prime
    starts = tail_starts(monkeypatch)
    p = 3317044064679887385961801
    row = regime_row(p, (-2, 0, 1), [*range(1, 9), 256])
    assert row[0][0] is InsufficientDepth
    assert [len(c.entries) for c, _ in row[1:]] == [*range(2, 9), 256]
    assert len(starts) == 8


# -- the algorithm: one lift, one expansion ------------------------------------------

@pytest.mark.parametrize("p, g, branch", [(p, g, b) for p, g, _, bs in DEEP for b in bs])
def test_one_lift_and_one_expansion(monkeypatch, p, g, branch):
    # a depth-40 build: the tail lifts eta with at most ceil(log2 40) + 2
    # `hensel_root` calls (one, unless the digits run out and the lift
    # doubles) and expands g once, at the last key; `build_chain` makes no
    # other `hensel_root` call, since the tail decides the depth cut
    from valring import keychain
    counts, inside = {"hensel_root": 0, "_iexpand": 0}, {}
    for name in counts:
        real = getattr(keychain, name)

        def counted(*args, real=real, name=name):
            counts[name] += 1
            return real(*args)
        monkeypatch.setattr(keychain, name, counted)
    tail = keychain._hensel_tail

    def spy(chain, depth):
        before = dict(counts)
        out = tail(chain, depth)
        inside.update({k: counts[k] - before[k] for k in counts})
        return out
    monkeypatch.setattr(keychain, "_hensel_tail", spy)
    chain = build_chain(ValuedFieldCtx(p), UniPoly(g), branch, 40)
    assert len(chain.entries) == 40
    assert inside["_iexpand"] == 1
    assert 1 <= inside["hensel_root"] <= ceil(log2(40)) + 2
    assert counts["hensel_root"] == inside["hensel_root"]
