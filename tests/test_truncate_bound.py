"""`truncate` as a bounded minimum against the value line it was read from.

nu_i(f) = min_j nu(f_j Q_i^j).  The reference below takes the least of the
whole line: every nonzero digit of f's Q_i-expansion valued, as `_line`
values them.  At a linear key `truncate` instead reads f's Taylor digits,
all constant, bounds term j from below by j*gamma_i - v_p(den) (d_j is an
integer), and stops its scan once the bound reaches the least term found so
far; at other keys it takes the least of the whole line.  Both must
give the same value, or the same refusal, on every suite chain (the worked
contexts full and collapsed, the six deep branches, seeded random
generators) and on chains whose oracle refuses, at every position, for
integer and rational f (p | den, where the bound starts below 0, included),
f with zero Taylor digits, constants and zero.  The oracle-free route
(`conftest.recursive_truncate`) must equal the reference's recursive line on
the same inputs.  On deep probe rows `truncate` must value fewer digits
than the reference, and no more on any row, and it reads digit 0 = f(c) by
one Horner pass, so the rows make at most one Taylor shift each on the
whole.  The row `truncations` holds a linear key's value t once t +
v_p(den) < gamma_i: on the deep probe rows it must equal the reference at
every position while calling `truncate` on a prefix of them, and on a
hand-built chain whose keys break the congruence or the gamma order it
must value every position.  Chain entries built past the dataclass
__init__ and the cached branch descriptor are checked here too.
"""

import random
from dataclasses import FrozenInstanceError, replace
from fractions import Fraction

import pytest

import valring.expandval as expandval
from valring.algebra import INF, UniPoly, ValuedFieldCtx, _iexpand, _intval
from valring.errors import MalformedInput, OracleUnavailable
from valring.expandval import truncate, truncations
from valring.keychain import ChainEntry, KeyChain, _entry, build_chain

from conftest import BRANCH_C, CTX2, GC, GD, recursive_truncate
from test_value_cascade import DEEP, chains

# -- the reference: the least of the whole value line ------------------------------


def ref_line(chain, i, f, recursive, what):
    """{j: nu(f_j) + j*gamma_i} over every nonzero digit."""
    ent = chain.entry(i)
    gamma = ent.gamma
    if gamma is INF:
        raise MalformedInput(f"{what} needs a position of finite value")
    p = chain.ctx.p
    top = len(chain.entries) - 1
    vden = _intval(p, f.den)
    out = {}
    for j, d in enumerate(_iexpand(f.nums, ent.Q.nums)):
        if not d:
            continue
        if len(d) == 1:
            v = _intval(p, d[0]) - vden
        elif recursive:
            v = chain.ivalue(top, d) - vden
        else:
            v = chain.nu(UniPoly._make(d, f.den)).value
        out[j] = v + j * gamma
    return out


def ref_truncate(chain, i, f, recursive=False):
    return min(ref_line(chain, i, f, recursive, "truncation").values(), default=INF)


def outcome(fn, *args):
    try:
        return fn(*args)
    except OracleUnavailable as e:
        return "oracle-unavailable", str(e)
    except MalformedInput as e:
        return "malformed-input", str(e)


# -- the chains and polynomials ------------------------------------------------------


def refusing_chains():
    """Context D (a degree-2 key at position 1) cut to a truncated plateau of
    degree 2, where the oracle refuses."""
    d = build_chain(CTX2, GD)
    cut = replace(d, entries=d.entries[:2], status="prefix-of-infinite-plateau")
    return [("D-cut", cut)]


def shaped(chain, i, rng):
    """Polynomials whose Q_i-expansion has a chosen shape: zero digits, the
    least term past index 0, and a denominator divisible by p."""
    p, Q = chain.ctx.p, chain.entry(i).Q
    x = UniPoly((0, 1))
    out = [UniPoly(), UniPoly((24,)), UniPoly((Fraction(3, p ** 2),)), UniPoly((p ** 5,)),
           Q ** 3 + Q * p, Q ** 2 * 5, (Q ** 2 + p ** 6) * Fraction(1, p ** 2),
           (Q + p ** 3) * Fraction(1, p ** 2), Q ** 2 + p ** 5, (Q * x + 1) * Q + p ** 4]
    for _ in range(6):
        a, b, c, j = rng.randrange(8), rng.randrange(3), rng.randrange(4), rng.randrange(1, 4)
        out.append((Q ** j * p ** b + p ** a) * Fraction(rng.choice((1, 3, 5)), p ** c))
    return out


def randoms(chain, rng, n=8):
    """Seeded integer polynomials, then rational ones, every other one with
    p | den."""
    p, deg = chain.ctx.p, chain.g.degree + 1
    out = []
    for k in range(n):
        den = 1 if k < n // 2 else rng.choice((1, 7, 11)) * p ** (k % 2 * rng.randrange(1, 4))
        out.append(UniPoly([Fraction(rng.randrange(-2 ** 16, 2 ** 16 + 1), den)
                            for _ in range(rng.randrange(1, deg + 2))]))
    return out


CHAINS = [pytest.param(name, chain, id=name) for name, chain in chains() + tuple(refusing_chains())]


@pytest.mark.parametrize("name, chain", CHAINS)
def test_truncate_is_the_least_of_the_line(name, chain):
    rng = random.Random(name)
    for i in range(len(chain.entries)):
        for f in shaped(chain, i, rng) + randoms(chain, rng):
            for recursive, trunc in ((False, truncate), (True, recursive_truncate)):
                args = (chain, i, f)
                assert outcome(trunc, *args) == outcome(ref_truncate, *args, recursive), \
                    (name, i, recursive, f)


def test_refusal_surfaces_past_the_bound():
    # at the degree-2 key the constant digit 1 already gives the least term
    # 0, yet the digit x of 1 + x*Q_1 is still sent to the oracle, which
    # refuses, as the reference's line does
    for name, chain in refusing_chains():
        f = UniPoly((0, 1)) * chain.entry(1).Q + 1
        assert outcome(truncate, chain, 1, f) == outcome(ref_truncate, chain, 1, f)
        assert outcome(truncate, chain, 1, f)[0] == "oracle-unavailable", name
        assert recursive_truncate(chain, 1, f) == 0


def test_linear_key_scan_stops_at_the_bound():
    # at x - c with gamma = 2: f = p^5 + Q^2 has terms 5 and 4; f = (p^3 + Q)
    # / p^2 has terms 1 and gamma - 2 = 0, below the den-free bound gamma
    chain = build_chain(CTX2, GC, BRANCH_C, depth=4)
    Q = chain.entry(1).Q
    assert chain.entry(1).gamma == 2
    assert truncate(chain, 1, Q ** 2 + 32) == 4
    assert truncate(chain, 1, (Q + 8) * Fraction(1, 4)) == 0
    assert truncate(chain, 1, Q ** 3 * Fraction(1, 16)) == 2


def _probe_rows():
    """check's monotonicity probe on each deep branch: the chain and its 25
    rows of f with coefficients in [-64, 64] and degree deg g, then two
    rows at the edges of the row's fixed point: Q_k = x - c_k at the middle
    key k (its row holds only from key k + 1) and a row over p^2."""
    for p, g, depth, branch in [(p, g, d, b) for p, g, d, bs in DEEP for b in bs]:
        chain = build_chain(ValuedFieldCtx(p), UniPoly(g), branch, depth)
        rng = random.Random(str(branch) + str(p))
        rows = [UniPoly([rng.randrange(-64, 65) for _ in range(len(g))]) for _ in range(25)]
        rows += [chain.entry(len(chain.entries) // 2).Q,
                 UniPoly([Fraction(rng.randrange(-64, 65), p ** 2) for _ in range(len(g))])]
        yield (p, branch), chain, rows


def test_probe_rows_value_fewer_digits(monkeypatch):
    # check's monotonicity probe: 25 rows of f with coefficients in
    # [-64, 64] and degree deg g on each deep branch; every digit is a
    # constant, so each valued digit is one _intval call on either route
    real, calls = _intval, []

    def counted(p, n):
        calls.append(n)
        return real(p, n)

    monkeypatch.setattr(expandval, "_intval", counted)
    monkeypatch.setitem(globals(), "_intval", counted)
    for (p, branch), chain, rows in _probe_rows():
        calls.clear()
        got = [truncations(chain, f) for f in rows]
        bounded = len(calls)
        calls.clear()
        assert got == [[ref_truncate(chain, i, f) for i in chain.star_positions] for f in rows]
        assert bounded < len(calls), (p, branch, bounded, len(calls))


def test_probe_rows_shift_at_most_once_per_row(monkeypatch):
    # digit 0 is valued by one Horner pass, and its term closes the scan at
    # most positions, so the rows make at most one Taylor shift per row,
    # where a shift per position would make 16 to 24
    real, shifts = expandval._taylor, []

    def counted(nums, t):
        shifts.append(t)
        return real(nums, t)

    monkeypatch.setattr(expandval, "_taylor", counted)
    for name, chain, rows in _probe_rows():
        shifts.clear()
        for f in rows:
            truncations(chain, f)
        assert len(shifts) <= len(rows), (name, len(shifts))


def test_each_probe_row_values_no_more_digits(monkeypatch):
    # row by row, digit 0 from the Horner pass and the scan after it value
    # no more digits than the reference's whole line
    real, calls = _intval, []

    def counted(p, n):
        calls.append(n)
        return real(p, n)

    monkeypatch.setattr(expandval, "_intval", counted)
    monkeypatch.setitem(globals(), "_intval", counted)
    for name, chain, rows in _probe_rows():
        for f in rows:
            calls.clear()
            got = truncations(chain, f)
            lazy = len(calls)
            calls.clear()
            assert got == [ref_truncate(chain, i, f) for i in chain.star_positions]
            assert lazy <= len(calls), (name, f, lazy, len(calls))


def _counted_rows(monkeypatch, chain, rows):
    """Each row with the positions it sends to `truncate`, counted by a
    wrapper bound in the module's globals, as a tracer binds it."""
    calls = []

    def counted(*args):
        calls.append(args[1])
        return truncate(*args)

    monkeypatch.setattr(expandval, "truncate", counted)
    out = []
    for f in rows:
        calls.clear()
        out.append((expandval.truncations(chain, f), list(calls)))
    monkeypatch.undo()
    return out


def test_probe_rows_hold_past_the_fixed_point(monkeypatch):
    # the row values each position through `truncate` until a linear key
    # leaves f's value below its gamma, and holds that value after it: the
    # row of Q_k from key k + 1 on, the row of g never, as v_p(g(c_i)) is
    # gamma_i (gamma_i + 1 at p = 2, where g's row shifts at every key, so
    # g is not one of the probe rows); every deep branch makes fewer calls
    # than positions
    for name, chain, rows in _probe_rows():
        star = chain.star_positions
        rows = rows + [chain.g]
        got = _counted_rows(monkeypatch, chain, rows)
        for f, (row, calls) in zip(rows, got):
            assert row == [ref_truncate(chain, i, f) for i in star], (name, f)
            assert calls == star[:len(calls)], (name, f, calls)
        k = len(chain.entries) // 2
        assert got[-3][1] == star[:k + 2], name
        assert got[-1][1] == star, name
        assert sum(len(calls) for _, calls in got) < len(rows) * len(star), name


def test_row_off_the_congruence_values_every_position(monkeypatch):
    # linear keys x - c built by hand at p = 3, for f = x: the row holds
    # v_3(f(1)) = 0 below gamma 2, but c = 3 is not 1 mod 9 and truncates
    # to 1, which the row holds in turn; c = 12 is 3 mod 9, but its gamma 0
    # is below 2, and it truncates to 0
    ctx = ValuedFieldCtx(3)
    keys = [(0, 0), (1, 2), (3, 2), (12, 0)]
    entries = tuple(_entry(ctx, k, UniPoly((-c, 1)), gamma) for k, (c, gamma) in enumerate(keys))
    chain = KeyChain(ctx, UniPoly((-2, 0, 1)), entries, "prefix-of-infinite-plateau", "full")
    f = UniPoly((0, 1))
    [(row, calls)] = _counted_rows(monkeypatch, chain, [f])
    assert calls == chain.star_positions
    assert row == [ref_truncate(chain, i, f) for i in calls] == [0, 0, 1, 0]


def test_entry_is_the_frozen_dataclass_instance():
    # `_entry` builds through ChainEntry's own constructor; the entry must
    # compare, hash, print and replace like ChainEntry(...) and refuse assignment
    chain = build_chain(CTX2, GC, BRANCH_C, depth=4)
    for ent in chain.entries[:-1]:
        a = CTX2.p ** ent.gamma
        res = (ent.res_field, ent.z, ent.emb_prev)
        built = _entry(CTX2, ent.position, ent.Q, ent.gamma, *res)
        want = ChainEntry(ent.position, ent.Q, ent.gamma, a, UniPoly._raw(ent.Q.nums, a), *res)
        assert built == want == ent and hash(built) == hash(want)
        assert repr(built) == repr(want)
        assert replace(built, position=9) == replace(want, position=9)
        with pytest.raises(FrozenInstanceError):
            built.z = 1
    bare = _entry(CTX2, 3, GC, 2)
    assert (bare.res_field, bare.z, bare.emb_prev) == (None, None, None)


def test_branch_descriptor_is_kept_in_the_chain_cache():
    chain = build_chain(CTX2, GC, BRANCH_C, depth=4)
    desc = chain.branch_descriptor()
    assert desc.kind == "hensel" and chain.branch_descriptor() is desc
    assert replace(chain).branch_descriptor() == desc
    # the refusal at a truncated plateau of degree 2 is not kept
    for _, cut in refusing_chains():
        for _ in range(2):
            with pytest.raises(OracleUnavailable):
                cut.branch_descriptor()
        assert "branch" not in cut.cache()
