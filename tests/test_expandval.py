import random
from fractions import Fraction

import pytest

import valring.expandval as expandval
from valring.algebra import INF, UniPoly, ValuedFieldCtx, pval
from valring.errors import InsufficientDepth, MalformedInput
from valring.expandval import (check_conditions, expansion_from_index_tuple,
                               expansion_level, full_expansion, make_neat,
                               s_set, truncate)
from valring.keychain import build_chain, segment
from valring.xpoly import XPoly

from conftest import CTX2, GA, GC, GD, rand_unipoly, recursive_truncate
from test_truncate_bound import ref_truncate


class TestTruncate:
    def test_exa_examples(self, chain_a):
        assert truncate(chain_a, 1, GA) == 2
        assert truncate(chain_a, 0, GA) == 0

    def test_constant(self, chain_c):
        assert truncate(chain_c, 2, UniPoly((24,))) == 3

    def test_zero(self, chain_a):
        assert truncate(chain_a, 0, UniPoly()) is INF

    def test_row_calls_truncate_per_position(self, monkeypatch):
        # the row reads `truncate` from the module's globals, so a counting
        # wrapper bound there (as a tracer binds it) sees every truncation
        # the row computes: a prefix of the positions, up to the linear key
        # whose value the rest of the row holds
        chain = build_chain(ValuedFieldCtx(2), UniPoly((7, 0, 1)), [[0, 0]], 24)
        f, calls = UniPoly((5, -3, 7)), []

        def counted(*args):
            calls.append(args[1])
            return truncate(*args)

        monkeypatch.setattr(expandval, "truncate", counted)
        row = expandval.truncations(chain, f)
        star = chain.star_positions
        assert calls and calls == star[:len(calls)] and len(calls) < len(row) == 24
        assert row == [ref_truncate(chain, i, f) for i in star]

    def test_agrees_with_recursive_evaluator(self, all_chains):
        rng = random.Random(11)
        for chain in all_chains.values():
            for _ in range(30):
                f = rand_unipoly(rng, chain.g.degree, 999)
                if f.is_zero:
                    continue
                for i in chain.star_positions:
                    assert truncate(chain, i, f) == recursive_truncate(chain, i, f)

    def test_monotone_and_below_nu(self, all_chains):
        rng = random.Random(3)
        for chain in all_chains.values():
            strict = False
            for _ in range(40):
                f = rand_unipoly(rng, chain.g.degree, 999)
                if f.is_zero:
                    continue
                vals = [truncate(chain, i, f) for i in chain.star_positions]
                vals.append(chain.nu(f).value)
                assert all(a <= b for a, b in zip(vals, vals[1:]))
                if any(a < b for a, b in zip(vals, vals[1:])):
                    strict = True
            assert strict

    def test_truncations_are_valuations_empirically(self, chain_a, chain_c):
        rng = random.Random(4)
        for chain in (chain_a, chain_c):
            for _ in range(25):
                f = rand_unipoly(rng, 2, 50)
                g = rand_unipoly(rng, 2, 50)
                if f.is_zero or g.is_zero:
                    continue
                for i in chain.star_positions:
                    assert truncate(chain, i, f * g) == \
                        truncate(chain, i, f) + truncate(chain, i, g)


class TestSSet:
    def test_exa(self, chain_a):
        assert s_set(chain_a, 1, GA).indices == (0, 1, 2)

    def test_exc(self, chain_c):
        assert s_set(chain_c, 1, GC).indices == (0, 1)

    def test_own_key(self, chain_a):
        assert s_set(chain_a, 1, chain_a.entries[1].Q).indices == (1,)

    def test_same_from_normalized_expansion(self, chain_c):
        # recompute from the Qt-expansion, by repeated division by the
        # non-monic Qt: indices must agree
        ent = chain_c.entries[1]
        vals = {}
        f, j = GC, 0
        while not f.is_zero:
            f, fj = divmod(f, ent.Qt)
            if not fj.is_zero:
                vals[j] = chain_c.nu(fj).value
            j += 1
        m = min(vals.values())
        assert tuple(sorted(j for j, v in vals.items() if v == m)) == \
            s_set(chain_c, 1, GC).indices


class TestFullExpansion:
    def test_exa_anchor1(self, chain_a):
        exp = full_expansion(chain_a, 1, GA)
        assert exp.poly == 4 * XPoly.var(1) ** 2 - 4 * XPoly.var(1) + XPoly.const(4)
        assert exp.nu_value == 2
        assert exp.index_tuple == (1,)

    def test_exd_anchor1(self, chain_d):
        exp = full_expansion(chain_d, 1, GD)
        X = XPoly.var
        assert exp.poly == 4 * X(1) ** 2 + 4 * X(1) + 4 * X(0)
        assert exp.nu_value == 2

    def test_exa_anchor0_of_x(self, chain_a):
        exp = full_expansion(chain_a, 0, UniPoly.x())
        assert exp.poly == XPoly.var(0)
        assert exp.nu_value == 0

    def test_conditions_on_random_inputs(self, all_chains):
        rng = random.Random(8)
        for chain in all_chains.values():
            for _ in range(25):
                f = rand_unipoly(rng, chain.g.degree, 200)
                if f.is_zero:
                    continue
                for i in chain.star_positions:
                    exp = full_expansion(chain, i, f)
                    checks = check_conditions(chain, exp, f)
                    assert all(checks.values()), (chain.g, f, i, checks)

    def test_reproducible_from_index_tuple(self, all_chains):
        rng = random.Random(9)
        for chain in all_chains.values():
            for _ in range(15):
                f = rand_unipoly(rng, chain.g.degree, 200)
                if f.is_zero:
                    continue
                i = rng.choice(chain.star_positions)
                exp = full_expansion(chain, i, f)
                again = expansion_from_index_tuple(chain, f, i, exp.index_tuple)
                assert again.terms == exp.terms

    def test_zero_rejected(self, chain_a):
        with pytest.raises(MalformedInput):
            full_expansion(chain_a, 0, UniPoly())

    def test_common_position_search(self, chain_c):
        # chain_c's keys x, x + 1, x - 3, x - 11 (gammas 0, 2, 3, 6) form one
        # truncated plateau; x - c is valued exactly from the first position
        # whose truncation reaches nu(x - c): 3 at x - 3, 6 at x - 11, both
        # at x - 11, and nu(x - 75) = 8 at none of them
        above = segment(chain_c).plateaus[-1].q + 1
        pick = expandval._pick_common_position
        x3, x11 = UniPoly((-3, 1)), UniPoly((-11, 1))
        assert pick(chain_c, above, [x3]) == 2
        assert pick(chain_c, above, [x11]) == 3
        assert pick(chain_c, above, [x3, x11]) == 3
        with pytest.raises(InsufficientDepth):
            pick(chain_c, above, [UniPoly((-75, 1))])


class TestExpansionLevel:
    def test_exc_qt2_at_1(self, chain_c):
        exp = full_expansion(chain_c, 1, chain_c.entries[2].Qt)
        level, neat, jmap = expansion_level(chain_c, exp)
        assert (level, neat) == (1, True)
        assert jmap == {1: 1}

    def test_exa_vacuous(self, chain_a):
        exp = full_expansion(chain_a, 1, GA)
        level, neat, _ = expansion_level(chain_a, exp)
        assert (level, neat) == (0, True)


class TestMakeNeat:
    def test_single_infinite_identity(self):
        out = make_neat((None,), ({0: 2},), 2)
        assert out.supports == ({0: 2},)
        assert out.windows == ()

    def test_finite_identity(self):
        out = make_neat((3, 1), ({0: 1, 1: 0},), 1)
        assert out.windows == ()

    def test_two_infinite_plateaus(self):
        out = make_neat((None, None), ({0: 1, 1: 4},), 1)
        assert out.supports == ({0: 1, 1: 1},)
        assert out.windows == ((1, 1, 4),)

    def test_decreasing_order_processes_both(self):
        out = make_neat((None, None), ({0: 3, 1: 5},), 2)
        assert out.supports == ({0: 2, 1: 2},)
        assert {w[0] for w in out.windows} == {0, 1}

    def test_support_inside_window_rejected(self):
        with pytest.raises(MalformedInput):
            make_neat((None,), ({0: 3}, {0: 4}), 2)


class TestShallowPrefix:
    def test_gauss_prefix_cannot_certify_values(self):
        # the depth-1 prefix of the split quadratic pins no branch, so the
        # oracle refuses rather than guessing
        from valring.errors import MathRejection
        from valring.keychain import gauss_start
        chain = gauss_start(CTX2, GC)
        with pytest.raises(MathRejection):
            chain.nu(UniPoly((-75, 1)))
