import random
from dataclasses import replace
from fractions import Fraction

import pytest

from valring.algebra import INF, UniPoly, ValuedFieldCtx, nu_oracle, resultant
from valring.errors import (AmbiguousBranch, InsufficientDepth, MalformedInput,
                            OracleUnavailable, RamifiedBranch,
                            UnsupportedNormalization)
from valring.expandval import s_set
from valring.keychain import (IMAX, build_chain, gauss_start, newton_polygon,
                              residual_poly, segment, strongly_monic, validate,
                              validation_passed)

from conftest import CTX2, GA, GB, GC, GD, BRANCH_C, rand_unipoly


def keys(chain):
    return [(e.Q, e.gamma) for e in chain.entries]


class TestGaussStart:
    def test_exa(self):
        c = gauss_start(CTX2, GA)
        assert keys(c) == [(UniPoly.x(), 0)]

    def test_exd(self):
        c = gauss_start(CTX2, GD)
        assert keys(c) == [(UniPoly.x(), 0)]

    def test_nonunit_constant_term(self):
        with pytest.raises(UnsupportedNormalization):
            gauss_start(CTX2, UniPoly((2, 0, 1)))

    def test_non_monic(self):
        with pytest.raises(UnsupportedNormalization):
            gauss_start(CTX2, UniPoly((1, 0, 2)))

    def test_non_integral(self):
        with pytest.raises(UnsupportedNormalization):
            gauss_start(CTX2, UniPoly((Fraction(1, 3), 0, 1)))


class TestBuildChain:
    def test_exa_full(self, chain_a):
        assert keys(chain_a) == [(UniPoly.x(), 0), (UniPoly((1, 1)), 1), (GA, INF)]
        assert chain_a.complete

    def test_exa_collapsed(self, chain_a_collapsed):
        assert keys(chain_a_collapsed) == [(UniPoly((1, 1)), 1), (GA, INF)]
        assert [e.position for e in chain_a_collapsed.entries] == [0, 1]

    def test_exb(self, chain_b):
        assert keys(chain_b) == [(UniPoly.x(), 0), (GB, INF)]

    def test_linear_generator_collapsed(self):
        # g = x + 1 shares the degree-1 plateau with x; collapsing keeps g
        # apart, so the collapsed chain is the full one
        full = build_chain(CTX2, UniPoly((1, 1)), "unique")
        collapsed = build_chain(CTX2, UniPoly((1, 1)), "unique", mode="collapsed")
        assert collapsed.entries == full.entries and len(full.entries) == 2
        assert validation_passed(validate(collapsed))

    def test_exc_depth4(self, chain_c):
        assert keys(chain_c) == [
            (UniPoly.x(), 0), (UniPoly((1, 1)), 2),
            (UniPoly((-3, 1)), 3), (UniPoly((-11, 1)), 6)]
        assert chain_c.status == "prefix-of-infinite-plateau"

    def test_exc_gammas_match_hensel_oracle(self, chain_c):
        for ent in chain_c.entries:
            got = chain_c.nu(ent.Q)
            assert got.value == ent.gamma
            assert got.method == "hensel"

    def test_exd(self, chain_d):
        assert keys(chain_d) == [(UniPoly.x(), 0), (UniPoly((1, 1, 1)), 1), (GD, INF)]

    def test_unique_selector_fails_on_branching(self):
        with pytest.raises(AmbiguousBranch):
            build_chain(CTX2, GC, "unique", depth=4)

    def test_other_branch(self):
        c = build_chain(CTX2, GC, [[1, 0]], depth=4)
        assert [e.gamma for e in c.entries] == [0, 1, 2, 4]

    def test_ramified_rejected(self):
        with pytest.raises(RamifiedBranch):
            build_chain(CTX2, UniPoly((-1, -2, 1)), "unique")

    def test_depth_exhausted_on_finite_chain_completes(self):
        c = build_chain(CTX2, GA, "unique", depth=2)
        assert c.complete and len(c.entries) == 3

    def test_gamma_oracle_agreement(self, all_chains):
        for chain in all_chains.values():
            for i in chain.star_positions:
                assert chain.nu(chain.entries[i].Q).value == chain.entries[i].gamma
                assert chain.nu(chain.entries[i].Qt).value == 0


class TestAugment:
    def test_exa_step_by_step(self):
        from valring.keychain import augment
        c = gauss_start(CTX2, GA)
        c = augment(c)
        assert keys(c)[-1] == (UniPoly((1, 1)), 1)
        c = augment(c)
        assert c.complete and keys(c)[-1] == (GA, INF)

    def test_exc_choice_consumed_then_forced(self):
        from valring.keychain import augment
        c = gauss_start(CTX2, GC)
        with pytest.raises(AmbiguousBranch):
            augment(c)
        c = augment(c, (0, 0))
        assert keys(c)[-1] == (UniPoly((1, 1)), 2)
        c = augment(c)
        assert keys(c)[-1] == (UniPoly((-3, 1)), 3)

    def test_complete_chain_rejects_augment(self, chain_a):
        from valring.keychain import augment
        with pytest.raises(MalformedInput):
            augment(chain_a)

    def test_one_call_per_step(self, monkeypatch):
        # x^2 + 7 at depth 4: the first step is choiceful and leaves one root
        # in the key's disc, so the rest of the prefix is its Hensel digits
        # and augment is not called again
        from valring import keychain
        from test_hensel_tail import ref_build_chain
        offered = []

        def counting(chain, branch_choice=None):
            offered.append(branch_choice)
            return augment(chain, branch_choice)

        augment = keychain.augment
        monkeypatch.setattr(keychain, "augment", counting)
        chain = build_chain(CTX2, GC, BRANCH_C, depth=4)
        assert offered == [(0, 0)]
        assert len(chain.entries) == 4 and len(chain.branch_log) == 1
        monkeypatch.undo()
        assert chain == ref_build_chain(CTX2, GC, BRANCH_C, depth=4)

    @pytest.mark.parametrize("g, picks", [(GA, ()), (GA, ((1, 0),)), (GC, ((0, 0),))])
    def test_choice_ignored_at_forced_step(self, g, picks):
        from valring.keychain import augment
        c = gauss_start(CTX2, g)
        for pick in picks:
            c = augment(c, pick)
        forced = augment(c)
        for pick in ((1, 0), (0, 1), (3, 3)):
            assert augment(c, pick) == forced
        assert forced.branch_log == c.branch_log

    @pytest.mark.parametrize("p, g, pick, logged, message", [
        # x^2 + 7 at p = 2: one residual factor, two admissible slopes
        (2, GC, None, None, "step 0: 2 admissible slopes"),
        (2, GC, (1, 0), (0, 0, 1, (2, 1), 1), None),
        (2, GC, (2, 0), None, "slope index 2 out of range at step 0"),
        (2, GC, (0, 1), None, "factor index 1 out of range at step 0"),
        # x^2 + 2 at p = 3: two residual factors, then one slope
        (3, UniPoly((2, 0, 1)), None, None, "step 0: 2 residual factors"),
        (3, UniPoly((2, 0, 1)), (0, 1), (0, 1, 2, (1,), 0), None),
        (3, UniPoly((2, 0, 1)), (0, 2), None, "factor index 2 out of range at step 0"),
        (3, UniPoly((2, 0, 1)), (1, 0), None, "slope index 1 out of range at step 0"),
    ])
    def test_pick_resolved_at_first_choiceful_menu(self, p, g, pick, logged, message):
        from valring.keychain import augment
        c = gauss_start(ValuedFieldCtx(p), g)
        if message is not None:
            with pytest.raises(AmbiguousBranch, match=f"^{message}$"):
                augment(c, pick)
            return
        (bp,) = augment(c, pick).branch_log
        assert (bp.step, bp.factor_pick, len(bp.factor_options), bp.slope_options,
                bp.slope_pick) == logged

    def test_step_at_depth_is_computed(self):
        # the step past the depth is still built, so its rejection shows
        with pytest.raises(RamifiedBranch, match="value increment 1/2"):
            build_chain(CTX2, UniPoly((-1, -2, 1)), "unique", depth=1)


class TestNewtonPolygon:
    def test_exc_shifted(self, chain_c):
        poly = newton_polygon(chain_c, 1, GC)
        assert poly.vertices == ((0, 3), (1, 1), (2, 0))
        assert [s.slope for s in poly.segments] == [-2, -1]

    def test_exa_single_slope(self, chain_a):
        poly = newton_polygon(chain_a, 1, GA)
        assert poly.vertices == ((0, 2), (1, 1), (2, 0))
        assert [(s.slope, s.length, s.multiplicity) for s in poly.segments] == [(-1, 2, 2)]

    def test_degenerate(self, chain_a):
        poly = newton_polygon(chain_a, 1, chain_a.entries[1].Q)
        assert poly.points == ((1, 0),)
        assert poly.segments == ()

    def test_position_out_of_range(self, chain_a):
        with pytest.raises(MalformedInput):
            newton_polygon(chain_a, 9, GA)


class TestResidualPoly:
    def test_exa_irreducible_quadratic(self, chain_a):
        coeffs, fld = residual_poly(chain_a, 1, GA, -1)
        assert fld.p == 2 and fld.k == 1
        assert coeffs == (fld.one, fld.one, fld.one)  # y^2 + y + 1

    def test_exc_linear(self, chain_c):
        coeffs, fld = residual_poly(chain_c, 1, GC, -2)
        assert coeffs == (fld.one, fld.one)  # y + 1 along the branch segment

    def test_exd_over_f4(self, chain_d):
        coeffs, fld = residual_poly(chain_d, 1, GD, -1)
        assert fld.k == 2
        w = fld.gen
        assert coeffs == (w, fld.one, fld.one)  # y^2 + y + res(x)
        # irreducible over F_4: trace of the constant term is 1
        assert fld.add(w, fld.pow(w, fld.p)) == fld.one

    def test_fractional_slope_is_ramified(self):
        chain = gauss_start(CTX2, UniPoly((-1, -2, 1)))
        chain = type(chain)(chain.ctx, chain.g, chain.entries, chain.status,
                            chain.mode, chain.branch_log)
        with pytest.raises(RamifiedBranch):
            residual_poly(chain, 0, UniPoly((2, -4, 1)), Fraction(-1, 2))


class TestSegmentation:
    def test_exa(self, chain_a):
        seg = segment(chain_a)
        assert [(p.degree, p.positions, p.flag) for p in seg.plateaus] == [
            (1, (0, 1), "finite-multi"), (2, (2,), "singleton")]
        assert seg.offset(0) == 0
        assert seg.offset(1) == 1
        assert seg.n_plus == {1: 2, 2: 2}

    def test_exc(self, chain_c):
        seg = segment(chain_c)
        assert [(p.degree, p.flag) for p in seg.plateaus] == [(1, "truncated-infinite")]
        assert [seg.offset(i) for i in range(3)] == [0, 1, 2]
        assert seg.imax_sources == (0, 1, 2, 3)

    def test_exb(self, chain_b):
        seg = segment(chain_b)
        assert [p.flag for p in seg.plateaus] == ["singleton", "singleton"]
        assert seg.offset(0) == 0


DEEP_BRANCHES = [
    (2, (7, 0, 1), 24, [[0, 0]]), (2, (7, 0, 1), 24, [[1, 0]]),
    (3, (2, 0, 1), 16, [[0, 0]]), (3, (2, 0, 1), 16, [[0, 1]]),
    (5, (1, 0, 1), 16, [[0, 0]]), (5, (1, 0, 1), 16, [[0, 1]]),
]


class TestSegmentInvariant:
    """Only the last plateau can be truncated-infinite, and every successor
    pair is (i, i + 1, "imm") or (i, IMAX, kind)."""

    @staticmethod
    def check(chain):
        seg = segment(chain)
        flags = [pl.flag for pl in seg.plateaus]
        assert "truncated-infinite" not in flags[:-1]
        assert (flags[-1] == "truncated-infinite") == (not chain.complete)
        for i, ell, kind in seg.succ_pairs:
            assert ell == IMAX or (ell == i + 1 and kind == "imm")

    def test_worked_contexts(self, all_chains, chain_a_collapsed):
        for chain in list(all_chains.values()) + [chain_a_collapsed]:
            self.check(chain)

    @pytest.mark.parametrize("p, g, depth, branch", DEEP_BRANCHES)
    def test_deep_branches(self, p, g, depth, branch):
        self.check(build_chain(ValuedFieldCtx(p), UniPoly(g), branch, depth=depth))


class TestStrongMonicity:
    """The recursive-evaluator predicate agrees with the oracle route: on
    every I1 successor pair its top index lies in the oracle's S-set."""

    @staticmethod
    def check(chain):
        pairs = [(i, ell) for i, ell, _ in segment(chain).succ_pairs if ell != IMAX]
        for i, ell in pairs:
            passed, witness = strongly_monic(chain, ell, i)
            assert passed, (ell, i, witness)
            assert witness["top_index"] in s_set(chain, i, chain.entries[ell].Q).indices
        return len(pairs)

    def test_worked_contexts(self, all_chains, chain_a_collapsed):
        chains = list(all_chains.values()) + [chain_a_collapsed]
        assert sum(self.check(chain) for chain in chains) > 0

    @pytest.mark.parametrize("p, g, depth, branch", DEEP_BRANCHES)
    def test_deep_branches(self, p, g, depth, branch):
        assert self.check(build_chain(ValuedFieldCtx(p), UniPoly(g), branch, depth=depth))


class TestDepthCut:
    def test_cut_inside_finite_plateau(self):
        # x^2 + 3 over Q_2 is complete at depth 3; its first key x pins no root
        with pytest.raises(InsufficientDepth, match="depth 1"):
            build_chain(CTX2, GA, "unique", depth=1)
        with pytest.raises(InsufficientDepth, match="depth 1"):
            build_chain(CTX2, GC, "unique", depth=1)


class TestValidate:
    def test_all_pass(self, all_chains, chain_a_collapsed):
        for chain in list(all_chains.values()) + [chain_a_collapsed]:
            report = validate(chain)
            assert validation_passed(report), [c for c in report if not c.passed]

    def test_exa_imax_pair_strong_monicity(self, chain_a):
        hits = [c for c in validate(chain_a) if c.name == "strongly-monic-imax"]
        assert hits and all(c.passed for c in hits)
        assert hits[0].witness["top_index"] == 2

    def test_fractional_gamma_fails(self, chain_a):
        bad_entry = replace(chain_a.entries[1], gamma=Fraction(1, 2))
        bad = type(chain_a)(chain_a.ctx, chain_a.g,
                            (chain_a.entries[0], bad_entry, chain_a.entries[2]),
                            chain_a.status, chain_a.mode, chain_a.branch_log)
        report = validate(bad)
        assert not validation_passed(report)
        assert any(c.name == "gamma-integral" and not c.passed for c in report)

    def test_corrupted_a_fails(self, chain_a):
        bad_entry = replace(chain_a.entries[1], a=Fraction(3))
        bad = type(chain_a)(chain_a.ctx, chain_a.g,
                            (chain_a.entries[0], bad_entry, chain_a.entries[2]),
                            chain_a.status, chain_a.mode, chain_a.branch_log)
        assert any(c.name == "a-is-p-power" and not c.passed for c in validate(bad))


class TestBranchDescriptor:
    def test_complete_unbranched_is_unique(self, chain_a, chain_b, chain_d):
        for chain in (chain_a, chain_b, chain_d):
            assert chain.branch_descriptor().kind == "unique"

    def test_prefix_is_hensel(self, chain_c):
        desc = chain_c.branch_descriptor()
        assert desc.kind == "hensel"
        assert desc.seed.value == 11 and desc.seed.precision == 6


class TestOracleEntryPoints:
    @pytest.mark.parametrize("ctx, g, branch, depth", [
        (CTX2, GC, BRANCH_C, 4),
        # g = (x + 5)(x - 2) over Q_3, the branch through the root -5
        (ValuedFieldCtx(3), UniPoly((-10, 3, 1)), [[0, 1]], 6),
    ], ids=["C", "p3-split"])
    def test_chain_nu_matches_nu_oracle(self, ctx, g, branch, depth):
        chain = build_chain(ctx, g, branch, depth=depth)
        desc = chain.branch_descriptor()
        assert desc.kind == "hensel" and "hensel_root" not in chain.cache()
        rng = random.Random(2503)
        # the deepest keys first, so later calls find a deep cached root
        hs = [e.Q for e in reversed(chain.entries)]
        while len(hs) < 30:
            h = rand_unipoly(rng, 3, height=64)
            if not h.is_zero and resultant(chain.g, h) != 0:
                hs.append(h)
        for h in hs:
            want = nu_oracle(chain.ctx, chain.g, desc, h)
            assert replace(chain).nu(h) == want      # cold cache
            assert chain.nu(h) == want               # warm cache
        assert chain.cache()["hensel_root"].precision > desc.seed.precision

    def test_chain_nu_is_memoized_per_chain(self, monkeypatch):
        import valring.keychain as kc
        calls = []
        real = kc.nu_oracle

        def counted(*args):
            calls.append(args[3])
            return real(*args)

        monkeypatch.setattr(kc, "nu_oracle", counted)
        chain = build_chain(CTX2, GC, BRANCH_C, depth=4)
        hs = [UniPoly((-75, 1)), UniPoly((3, 0, 1)), UniPoly((Fraction(1, 4), 1))]
        first = [chain.nu(h) for h in hs]
        assert [chain.nu(UniPoly(h.coeffs)) for h in hs] == first
        assert calls == hs
        assert replace(chain).nu(hs[0]) == first[0] and len(calls) == 4

    @pytest.mark.parametrize("g, branch, depth, method", [
        (GA, "unique", 16, "resultant"), (GC, BRANCH_C, 8, "hensel")], ids=["A", "C"])
    def test_nu_memo_is_keyed_by_numerators(self, monkeypatch, g, branch, depth, method):
        # nu(h / p^k) = nu(h) - k, and INF for g itself: either call answers
        # the other from the memo
        import valring.keychain as kc
        calls = []
        real = kc.nu_oracle

        def counted(*args):
            calls.append(args[3])
            return real(*args)

        monkeypatch.setattr(kc, "nu_oracle", counted)
        chain = build_chain(CTX2, g, branch, depth=depth)
        for h in [UniPoly((1, 1)), UniPoly((5, 1)), UniPoly((1, 0, 1)),
                  UniPoly((Fraction(1, 3), 2)), g]:
            for k in (1, 3):
                low = h * Fraction(1, 2 ** k)
                for first, second in ((h, low), (low, h)):
                    fresh = replace(chain)
                    calls.clear()
                    a, b = fresh.nu(first), fresh.nu(second)
                    assert calls == [first]
                    assert a.method == b.method == (method if h != g else "divisibility")
                    want = fresh.nu(h).value
                    assert fresh.nu(low).value == (want - k if want is not INF else INF)
                    assert {a, b} == {real(CTX2, g, chain.branch_descriptor(), x)
                                      for x in (h, low)}

    def test_validate_asks_the_oracle_once_per_key(self, monkeypatch):
        # Qt_i = Q_i / p^gamma_i shares Q_i's numerators
        import valring.keychain as kc
        calls = []
        real = kc.nu_oracle

        def counted(*args):
            calls.append(args[3])
            return real(*args)

        monkeypatch.setattr(kc, "nu_oracle", counted)
        chain = build_chain(CTX2, GC, BRANCH_C, depth=24)
        calls.clear()
        report = validate(chain)
        assert validation_passed(report)
        assert calls == [chain.entries[i].Qt for i in chain.star_positions]

    def test_oracle_refusal_is_not_memoized(self, monkeypatch):
        import valring.keychain as kc
        calls = []
        real = kc.nu_oracle

        def refuse_once(*args):
            calls.append(args[3])
            if len(calls) == 1:
                raise OracleUnavailable("refused once")
            return real(*args)

        monkeypatch.setattr(kc, "nu_oracle", refuse_once)
        chain = build_chain(CTX2, GA)
        h = UniPoly((1, 1))
        with pytest.raises(OracleUnavailable):
            chain.nu(h)
        assert chain.nu(h) == real(CTX2, GA, chain.branch_descriptor(), h)
        assert len(calls) == 2
