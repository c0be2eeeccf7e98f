import random
from fractions import Fraction

import pytest

from valring.algebra import INF, UniPoly
from valring.errors import InsufficientDepth, MalformedInput, NotInIdeal
from valring.keychain import build_chain, segment
from valring.presentrel import ideal_generators
from valring.rewrite import in_x0, total_reduction, total_s_building
from valring.verify import (_membership_anchor, check_relations,
                            completeness_probe, eval_e, eval_eta, integral_rep,
                            membership)
from valring.xpoly import XPoly

from conftest import BRANCH_C, CTX2, GA, GB, GC, GD, rand_unipoly, rand_xpoly

X = XPoly.var
ONE = XPoly.const(1)


class TestEvalE:
    def test_kernel_member(self, chain_a):
        assert eval_e(chain_a, 2 * X(1) - X(0) - ONE).is_zero

    def test_generator_image(self, chain_a):
        assert eval_e(chain_a, X(1) ** 2 - X(1) + ONE) == chain_a.g / 4

    def test_constant(self, chain_a):
        assert eval_e(chain_a, XPoly.const(Fraction(5, 3))) == UniPoly((Fraction(5, 3),))


class TestEvalEta:
    def test_zero_on_generator(self, chain_a):
        assert eval_eta(chain_a, X(1) ** 2 - X(1) + ONE) == (True, INF)

    def test_nonzero_with_value(self, chain_a):
        is_zero, val = eval_eta(chain_a, X(0))
        assert not is_zero and val == 0

    def test_exc_prefix_generator(self, chain_c):
        assert eval_eta(chain_c, 2 * X(1) ** 2 - X(1) + ONE)[0]


class TestCheckRelations:
    def test_all_pass(self, all_chains, chain_a_collapsed):
        for chain in list(all_chains.values()) + [chain_a_collapsed]:
            report = check_relations(chain)
            assert all(c.passed for c in report), [c for c in report if not c.passed]

    def test_exc_decreasing_values(self, chain_c):
        i2 = [c for c in check_relations(chain_c) if c.kind == "I2"]
        assert [c.details["v_b"] for c in i2] == [0, -3, -4, -7]

    def test_corrupted_scaling_detected(self, chain_a):
        # relations are recomputed from the chain, so a corrupted a_i shows
        # up in the oracle-backed normalization checks rather than here
        from dataclasses import replace
        from valring.keychain import validate
        bad_entry = replace(chain_a.entries[1], a=Fraction(8),
                            Qt=chain_a.entries[1].Q / 8)
        bad = type(chain_a)(chain_a.ctx, chain_a.g,
                            (chain_a.entries[0], bad_entry, chain_a.entries[2]),
                            chain_a.status, chain_a.mode, chain_a.branch_log)
        report = validate(bad)
        failed = {c.name for c in report if not c.passed}
        assert "a-is-p-power" in failed and "qt-unit-value" in failed

    def test_tampered_generator_fails_identities(self, chain_a):
        # a stale generator body no longer evaluates into the kernel
        gens = ideal_generators(chain_a)
        tampered = gens.i1[0].relation_poly + ONE
        assert not eval_e(chain_a, tampered).is_zero


class TestCompletenessProbe:
    def test_exa_linear(self, chain_a):
        assert completeness_probe(chain_a, UniPoly((5, 1))) == 1

    def test_constant_trivial(self, chain_a):
        assert completeness_probe(chain_a, UniPoly((6,))) == 0

    def test_exc_shallow(self, chain_c):
        with pytest.raises(InsufficientDepth):
            completeness_probe(chain_c, UniPoly((-75, 1)))

    def test_exc_depth6_witnesses(self, chain_c6):
        i = completeness_probe(chain_c6, UniPoly((-75, 1)))
        assert chain_c6.entries[i].Q.degree <= 1

    def test_random_on_complete_chains(self, chain_a, chain_b, chain_d):
        rng = random.Random(21)
        for chain in (chain_a, chain_b, chain_d):
            for _ in range(40):
                f = rand_unipoly(rng, chain.g.degree, 500)
                if f.is_zero:
                    continue
                i = completeness_probe(chain, f)
                assert chain.entries[i].Q.degree <= max(f.degree, 1) or f.degree == 0


class TestIntegralRep:
    def test_exa_x(self, chain_a):
        assert integral_rep(chain_a, UniPoly.x()) == X(0)

    def test_exa_normalized_key(self, chain_a):
        h = UniPoly((Fraction(1, 2), Fraction(1, 2)))
        assert integral_rep(chain_a, h) == X(1)

    def test_exd_normalized_key(self, chain_d):
        h = chain_d.entries[1].Qt
        assert integral_rep(chain_d, h) == X(1)

    def test_negative_value_rejected(self, chain_a):
        with pytest.raises(MalformedInput):
            integral_rep(chain_a, UniPoly((Fraction(1, 2),)))

    def test_roundtrip_random(self, chain_a, chain_b, chain_d):
        rng = random.Random(22)
        for chain in (chain_a, chain_b, chain_d):
            done = 0
            while done < 25:
                f = rand_unipoly(rng, chain.g.degree - 1, 300)
                if f.is_zero or chain.nu(f).value < 0:
                    continue
                rep = integral_rep(chain, f)
                assert rep.is_integral
                assert (eval_e(chain, rep) - f) % chain.g == UniPoly()
                done += 1

    def test_collapse_correctness(self, chain_a_collapsed):
        # the dropped generator x is an integral combination of the kept ones
        rep = integral_rep(chain_a_collapsed, UniPoly.x())
        assert rep == 2 * X(0) - ONE
        assert eval_e(chain_a_collapsed, rep) == UniPoly.x()


class TestMembership:
    def test_exa_constructed_combination(self, chain_a):
        gens = ideal_generators(chain_a)
        F = gens.i1[0].relation_poly + X(0) * gens.i2[0].Q_poly
        cert = membership(chain_a, F)
        assert cert.re_expand(gens) == F
        assert cert.denominators == ()

    def test_exa_generator_is_its_own_certificate(self, chain_a):
        gens = ideal_generators(chain_a)
        cert = membership(chain_a, gens.i2[0].Q_poly)
        assert cert.i2_cofactor == ONE
        assert cert.i1_parts == ()

    def test_exa_not_in_ideal(self, chain_a):
        with pytest.raises(NotInIdeal):
            membership(chain_a, X(0))

    def test_negative_mu0_rejected(self, chain_a):
        with pytest.raises(MalformedInput):
            membership(chain_a, XPoly.const(Fraction(1, 2)) * X(0))

    def test_random_combinations(self, all_chains):
        rng = random.Random(23)
        for name, chain in all_chains.items():
            gens = ideal_generators(chain)
            allg = [(g.relation_poly if g.kind == "I1" else g.Q_poly)
                    for g in list(gens.i1) + list(gens.i2)]
            for _ in range(10):
                F = XPoly.zero()
                for body in allg:
                    F = F + rand_xpoly(rng, chain.star_positions, max_exp=1) * body
                if F.is_zero:
                    continue
                cert = membership(chain, F)
                assert cert.re_expand(gens) == F
                if name != "C":
                    assert cert.denominators == ()

    def test_random_rejections(self, all_chains):
        rng = random.Random(24)
        for chain in all_chains.values():
            rejected = 0
            while rejected < 10:
                F = rand_xpoly(rng, chain.star_positions)
                if F.is_zero or not F.is_integral:
                    continue
                if eval_eta(chain, F)[0]:
                    continue
                with pytest.raises(NotInIdeal):
                    membership(chain, F)
                rejected += 1

    @pytest.mark.parametrize("g, branch", [(GA, "unique"), (GB, "unique"),
                                           (GC, BRANCH_C), (GD, "unique")])
    def test_collapsed_generator_multiples(self, g, branch):
        # in collapsed mode X_0 = Qt_0 need not be x (context A: Qt_0 = (x+1)/2)
        chain = build_chain(CTX2, g, branch, depth=4, mode="collapsed")
        gens = ideal_generators(chain)
        for gen in list(gens.i1) + list(gens.i2):
            body = gen.relation_poly if gen.kind == "I1" else gen.Q_poly
            F = body * (X(0) + 3)
            cert = membership(chain, F)
            assert cert.re_expand(gens) == F

    @pytest.mark.parametrize("mode", ["full", "collapsed"])
    @pytest.mark.parametrize("g, branch", [(GA, "unique"), (GB, "unique"),
                                           (GC, BRANCH_C), (GD, "unique")])
    def test_reduction_of_building_is_image(self, g, branch, mode):
        # the constructive route (total s-building at the certificate's
        # level, then total reduction) yields F's image in X_0 = Qt_0, which
        # membership divides directly
        chain = build_chain(CTX2, g, branch, depth=4, mode=mode)
        gens = ideal_generators(chain)
        seg = segment(chain)
        rng = random.Random(31)
        bodies = [gen.relation_poly if gen.kind == "I1" else gen.Q_poly
                  for gen in list(gens.i1) + list(gens.i2)]
        for F in [body * (X(0) + 3) for body in bodies] + [
                sum((rand_xpoly(rng, chain.star_positions, max_exp=1) * body
                     for body in bodies), XPoly.zero()) for _ in range(3)]:
            if F.is_zero:
                continue
            s = max((seg.offset(k) for k in F.variables()), default=0)
            anchor = _membership_anchor(chain, s)
            f_s = total_s_building(chain, F, max(s, seg.offset(anchor)), through=anchor)
            assert total_reduction(chain, f_s) == in_x0(chain, eval_e(chain, F))
            assert (eval_e(chain, F) % chain.g).is_zero

    def test_exc_insufficient_depth(self):
        from valring.keychain import build_chain
        from conftest import GC, BRANCH_C
        shallow = build_chain(CTX2, GC, BRANCH_C, depth=2)
        gens = ideal_generators(shallow)
        deep = 32 * X(3) ** 2 + 11 * X(3) + ONE
        with pytest.raises(MalformedInput):
            membership(shallow, deep)
