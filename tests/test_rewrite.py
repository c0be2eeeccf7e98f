import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from valring.algebra import UniPoly, ValuedFieldCtx, pval
from valring.errors import MalformedInput
from valring.expandval import truncate
from valring.keychain import segment
from valring.presentrel import ideal_generators
from valring.rewrite import (EQUAL, GREATER, INCOMPARABLE, LESS, building,
                             is_neat, prec_compare, reduction, replay,
                             total_reduction, total_s_building, vdeg)
from valring.verify import eval_e
from valring.xpoly import XPoly, mu0

from conftest import CTX2, rand_xpoly

X = XPoly.var
ONE = XPoly.const(1)


class TestVdegMu0:
    def test_vdeg_exd(self, chain_d):
        assert vdeg(chain_d, X(0) * X(1) ** 2) == 5
        assert vdeg(chain_d, X(1)) == 2

    def test_vdeg_single_variable(self, chain_a):
        assert vdeg(chain_a, X(1)) == 1
        assert vdeg(chain_a, 4 * X(1) ** 2 - 4 * X(1) + ONE) == 2

    def test_vdeg_zero_rejected(self, chain_a):
        with pytest.raises(MalformedInput):
            vdeg(chain_a, XPoly.zero())

    def test_mu0(self, chain_a, chain_c):
        assert mu0(CTX2, 4 * X(1) ** 2 - 4 * X(1) + ONE) == 0
        assert mu0(CTX2, XPoly.const(12)) == 2
        assert mu0(CTX2, 32 * X(3) ** 2 + 11 * X(3) + ONE) == 0

    @given(st.data())
    def test_mu0_is_the_least_coefficient_value(self, data):
        # v_p of the numerators' content less v_p(den) is the least pval of
        # the coefficients, for negative and huge numerators and dens
        p = data.draw(st.sampled_from((2, 3, 5, 3317044064679887385961801)))
        ctx = ValuedFieldCtx(p)
        big = st.integers(-10 ** 60, 10 ** 60).filter(bool)
        scaled = st.builds(lambda n, k: n * p ** k, big, st.integers(0, 40))
        coeffs = data.draw(st.lists(st.builds(Fraction, scaled, scaled), min_size=1, max_size=6))
        F = XPoly({((k, 1),): c for k, c in enumerate(coeffs)})
        assert mu0(ctx, F) == min(pval(ctx, c) for c in F.terms.values())


class TestPrecCompare:
    def test_exd_graded_lex(self, chain_d):
        assert prec_compare(chain_d, X(1), X(0) ** 2) == LESS
        assert prec_compare(chain_d, X(0) ** 2, X(1)) == GREATER

    def test_equal(self, chain_a):
        f = 3 * X(0) + ONE
        assert prec_compare(chain_a, f, f) == EQUAL

    def test_same_support_incomparable(self, chain_a):
        assert prec_compare(chain_a, 2 * X(1), 3 * X(1)) == INCOMPARABLE

    def test_lower_degree_wins(self, chain_a):
        assert prec_compare(chain_a, X(0), X(0) ** 2) == LESS

    def test_shorter_list_padded(self, chain_a):
        assert prec_compare(chain_a, X(1), X(1) + X(0)) == LESS


class TestIsNeat:
    def test_exa_relation_full_mode(self, chain_a):
        rep = is_neat(chain_a, 2 * X(1) - X(0) - ONE)
        assert rep.neat and rep.level == 0
        assert rep.note == "neat under collapsed indexing"

    def test_exd_i2(self, chain_d):
        rep = is_neat(chain_d, X(1) ** 2 + X(1) + X(0))
        assert rep.neat and rep.level == 0 and rep.note is None

    def test_top_variable_unbounded(self, chain_a):
        rep = is_neat(chain_a, X(0) ** 2)
        assert rep.neat and rep.level == 0

    def test_infinite_plateau_two_variables(self, chain_c):
        rep = is_neat(chain_c, X(1) + X(2))
        assert not rep.neat

    def test_infinite_plateau_level(self, chain_c):
        rep = is_neat(chain_c, 32 * X(3) ** 2 + 11 * X(3) + ONE)
        assert rep.neat and rep.level == 3


class TestBuilding:
    def test_exa_square(self, chain_a):
        out = building(chain_a, X(0) ** 2, 0, 1)
        assert out == 4 * X(1) ** 2 - 4 * X(1) + ONE

    def test_exd_cube(self, chain_d):
        out = building(chain_d, X(0) ** 3, 0, 1)
        assert out == 2 * X(0) * X(1) - 2 * X(1) + ONE

    def test_degree_threshold(self, chain_d):
        # below the ratio deg Q_1 / deg Q_0 = 2 the building fixes F
        assert building(chain_d, X(0), 0, 1) == X(0)
        assert building(chain_d, X(0) ** 2, 0, 1) == 2 * X(1) - X(0) - ONE

    def test_same_degree_pair_acts_on_degree_one(self, chain_a):
        # ratio 1 within a plateau: any occurrence is rebuilt
        assert building(chain_a, X(0), 0, 1) == 2 * X(1) - ONE

    def test_trace_reexpands(self, chain_a):
        tr = []
        F = X(0) ** 3 + 5 * X(0)
        out = building(chain_a, F, 0, 1, tr)
        assert out - F == replay(chain_a, tr)

    def test_preserves_evaluation(self, all_chains):
        rng = random.Random(13)
        for chain in all_chains.values():
            seg = segment(chain)
            for (i, ell, kind) in seg.succ_pairs:
                if ell == "imax":
                    continue
                F = rand_xpoly(rng, chain.star_positions)
                if F.is_zero:
                    continue
                out = building(chain, F, i, ell)
                assert eval_e(chain, out) == eval_e(chain, F)

    def test_strictly_decreases_and_mu0_monotone(self, all_chains):
        rng = random.Random(14)
        for chain in all_chains.values():
            seg = segment(chain)
            pairs = [(i, e) for (i, e, k) in seg.succ_pairs if e != "imax"]
            for _ in range(15):
                F = rand_xpoly(rng, chain.star_positions)
                if F.is_zero:
                    continue
                for (i, ell) in pairs:
                    out = building(chain, F, i, ell)
                    if out == F:
                        continue
                    assert prec_compare(chain, out, F) == LESS
                    assert mu0(CTX2, out) >= mu0(CTX2, F)


class TestReduction:
    def test_exa(self, chain_a):
        assert reduction(chain_a, X(1), 0, 1) == (X(0) + ONE) / 2
        assert reduction(chain_a, X(0), 0, 1) == X(0)

    def test_exd_square(self, chain_d):
        out = reduction(chain_d, X(1) ** 2, 0, 1)
        assert out == ((X(0) ** 2 + X(0) + ONE) / 2) ** 2

    def test_trace(self, chain_c):
        tr = []
        F = 3 * X(2) ** 2 + X(1)
        out = reduction(chain_c, F, 1, 2, tr)
        assert out - F == replay(chain_c, tr)

    def test_building_inverts_reduction_on_low_degree(self, chain_d):
        # cross-plateau pair: the reduced image has X_0-degree at the ratio,
        # so one building recovers F exactly
        F = 7 * X(1) + 2 * X(0)
        red = reduction(chain_d, F, 0, 1)
        assert building(chain_d, red, 0, 1) == F
        # within-plateau pairs instead fold every occurrence upward
        red_a = reduction(chain_d, X(0), 0, 1)
        assert red_a == X(0)


@pytest.mark.parametrize("op", [building, reduction])
@pytest.mark.parametrize("trace", [None, []])
def test_final_pair_of_complete_chain_refused(chain_a, chain_d, op, trace):
    # the pair (imax - 1, imax) of a complete chain names g's relation, in
    # I2: there is no variable X_imax to build into or reduce
    for chain in (chain_a, chain_d):
        top = chain.imax_pos
        F = X(top - 1) ** 2
        with pytest.raises(MalformedInput, match="I2 pair"):
            op(chain, F, top - 1, top, trace)
        assert not trace


class TestTotalSBuilding:
    def test_exa_square(self, chain_a):
        out = total_s_building(chain_a, X(0) ** 2, 1)
        assert out == 4 * X(1) ** 2 - 4 * X(1) + ONE

    def test_fixed_point(self, chain_c):
        F = 32 * X(3) ** 2 + 11 * X(3) + ONE
        assert total_s_building(chain_c, F, 3) == F

    def test_redundancy_route(self, chain_c):
        # the scaled source-2 generator rebuilds to the scaled source-3 one
        gens = ideal_generators(chain_c)
        by = {g.source: g for g in gens.i2}
        lhs = total_s_building(chain_c, by[2].Q_poly / by[2].b, 3)
        assert lhs == by[3].Q_poly / by[3].b

    def test_offset_precondition(self, chain_c):
        with pytest.raises(MalformedInput):
            total_s_building(chain_c, X(3), 1)

    def test_result_neat_congruent_and_level_bounded(self, all_chains):
        rng = random.Random(15)
        for chain in all_chains.values():
            seg = segment(chain)
            for _ in range(10):
                F = rand_xpoly(rng, chain.star_positions)
                if F.is_zero:
                    continue
                s = max(seg.offset(k) for k in F.variables()) if F.variables() else 0
                tr = []
                out = total_s_building(chain, F, s, tr)
                rep = is_neat(chain, out)
                assert rep.neat
                assert rep.level <= s
                assert out - F == replay(chain, tr)

    def test_two_orders_agree(self, chain_c):
        rng = random.Random(16)
        for _ in range(15):
            F = rand_xpoly(rng, chain_c.star_positions)
            if F.is_zero:
                continue
            s = 3
            a = total_s_building(chain_c, F, s, order="least")
            b = total_s_building(chain_c, F, s, order="greatest")
            assert a == b

    def test_mu0_level_identity(self, all_chains):
        rng = random.Random(17)
        for chain in all_chains.values():
            seg = segment(chain)
            for _ in range(10):
                F = rand_xpoly(rng, chain.star_positions)
                if F.is_zero or not F.variables():
                    continue
                s = max(seg.offset(k) for k in F.variables())
                qtop = max(seg.q_of[k] for k in F.variables())
                pos = seg.plateaus[qtop - 1].first + s
                out = total_s_building(chain, F, s)
                assert mu0(CTX2, out) == truncate(chain, pos, eval_e(chain, F))


class TestTotalReduction:
    def test_exa_generator(self, chain_a):
        out = total_reduction(chain_a, X(1) ** 2 - X(1) + ONE)
        assert out == chain_a.g / 4

    def test_already_reduced(self, chain_a):
        f = UniPoly((1, 0, 5))
        assert total_reduction(chain_a, XPoly.from_unipoly(f, 0)) == f

    def test_exd_generator(self, chain_d):
        out = total_reduction(chain_d, X(1) ** 2 + X(1) + X(0))
        assert out == chain_d.g / 4

    def test_trace_matches_substitution(self, all_chains):
        rng = random.Random(18)
        for chain in all_chains.values():
            for _ in range(8):
                F = rand_xpoly(rng, chain.star_positions)
                if F.is_zero:
                    continue
                tr = []
                out = total_reduction(chain, F, tr)
                assert XPoly.from_unipoly(out, 0) - F == replay(chain, tr)
