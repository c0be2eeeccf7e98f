from fractions import Fraction

import pytest

from valring.algebra import UniPoly, pval
from valring.errors import MalformedInput
from valring.keychain import IMAX
from valring.presentrel import (ideal_generators, plateau_relation,
                                redundancy_cofactor, relation)
from valring.rewrite import is_neat
from valring.verify import eval_e
from valring.xpoly import XPoly, mu0

from conftest import CTX2

X = XPoly.var
ONE = XPoly.const(1)


class TestRelation:
    def test_exa_pair_1_0(self, chain_a):
        gen = relation(chain_a, 1, 0)
        assert gen.b == 2
        assert gen.Q_poly == X(0) + ONE
        assert gen.relation_poly == 2 * X(1) - X(0) - ONE
        assert eval_e(chain_a, gen.relation_poly).is_zero

    def test_exa_imax_1(self, chain_a):
        gen = relation(chain_a, IMAX, 1)
        assert gen.b == Fraction(1, 4)
        assert gen.Q_poly == X(1) ** 2 - X(1) + ONE
        assert eval_e(chain_a, gen.Q_poly) == chain_a.g * gen.h

    def test_exd_imax_1(self, chain_d):
        gen = relation(chain_d, IMAX, 1)
        assert gen.b == Fraction(1, 4)
        assert gen.Q_poly == X(1) ** 2 + X(1) + X(0)

    def test_imax_position_alias(self, chain_a):
        assert relation(chain_a, 2, 1).Q_poly == relation(chain_a, IMAX, 1).Q_poly

    def test_non_successor_rejected(self, chain_c):
        with pytest.raises(MalformedInput):
            relation(chain_c, 3, 1)


class TestIdealGenerators:
    def test_exa(self, chain_a):
        gens = ideal_generators(chain_a)
        assert [g.relation_poly for g in gens.i1] == [2 * X(1) - X(0) - ONE]
        assert [g.Q_poly for g in gens.i2] == [X(1) ** 2 - X(1) + ONE]

    def test_exa_collapsed(self, chain_a_collapsed):
        gens = ideal_generators(chain_a_collapsed)
        assert gens.i1 == ()
        assert [g.Q_poly for g in gens.i2] == [X(0) ** 2 - X(0) + ONE]

    def test_exb(self, chain_b):
        gens = ideal_generators(chain_b)
        assert gens.i1 == ()
        assert [g.Q_poly for g in gens.i2] == [X(0) ** 2 - X(0) + ONE]

    def test_exd(self, chain_d):
        gens = ideal_generators(chain_d)
        assert [g.relation_poly for g in gens.i1] == \
            [2 * X(1) - X(0) ** 2 - X(0) - ONE]
        assert [g.Q_poly for g in gens.i2] == [X(1) ** 2 + X(1) + X(0)]

    def test_exc(self, chain_c):
        gens = ideal_generators(chain_c)
        assert [g.relation_poly for g in gens.i1] == [
            4 * X(1) - X(0) - ONE,
            2 * X(2) - X(1) + ONE,
            8 * X(3) - X(2) + ONE,
        ]
        assert [g.Q_poly for g in gens.i2] == [
            X(0) ** 2 + XPoly.const(7),
            2 * X(1) ** 2 - X(1) + ONE,
            4 * X(2) ** 2 + 3 * X(2) + ONE,
            32 * X(3) ** 2 + 11 * X(3) + ONE,
        ]

    def test_exc_b_values_strictly_decreasing(self, chain_c):
        gens = ideal_generators(chain_c)
        vbs = [pval(CTX2, g.b) for g in gens.i2]
        assert vbs == [0, -3, -4, -7]

    def test_invariants(self, all_chains):
        for chain in all_chains.values():
            gens = ideal_generators(chain)
            for g in gens.i1:
                assert mu0(CTX2, g.Q_poly) == 0
                assert pval(CTX2, g.b) > 0
                assert eval_e(chain, g.relation_poly).is_zero
                assert is_neat(chain, g.Q_poly).neat
            for g in gens.i2:
                assert mu0(CTX2, g.Q_poly) == 0
                assert eval_e(chain, g.Q_poly) == chain.g * g.h
                assert is_neat(chain, g.Q_poly).neat

    def test_cross_plateau_relation_near_neat(self, chain_d):
        # the relation body is neat; the relation itself satisfies the
        # one-variable-per-plateau and offset conditions, with the exponent
        # bound tight (not strict) at the strongly monic image of the target
        gen = ideal_generators(chain_d).i1[0]
        assert is_neat(chain_d, gen.Q_poly).neat
        rep = is_neat(chain_d, gen.relation_poly)
        assert not rep.neat and "exponent bound" in rep.note
        r = chain_d.entries[1].Q.degree // chain_d.entries[0].Q.degree
        assert gen.relation_poly.degree_in(0) == r


class TestPlateauRelation:
    def test_exc(self, chain_c):
        r1 = plateau_relation(chain_c, 1)
        assert (r1.b, r1.A) == (2, XPoly.const(-1))
        r2 = plateau_relation(chain_c, 2)
        assert (r2.b, r2.A) == (8, XPoly.const(-1))

    def test_exa(self, chain_a):
        r0 = plateau_relation(chain_a, 0)
        assert (r0.b, r0.A) == (2, ONE)

    def test_cross_plateau_rejected(self, chain_d):
        with pytest.raises(MalformedInput):
            plateau_relation(chain_d, 0)

    def test_generator_reexpression(self, chain_c):
        # X_i = c X_{i'} - sum A - sum cofactor * relation, c a unit times
        # the product of the b's, all verified by expansion
        gens = ideal_generators(chain_c)
        for i, i2 in ((0, 2), (1, 3), (0, 3)):
            acc = X(i)
            c = Fraction(1)
            low = XPoly.zero()
            combo = XPoly.zero()
            for k in range(i, i2):
                rel = gens.i1_by_target(k + 1)
                # X_k = b X_{k+1} - A_k - rel_{k+1}; propagate through c
                a_poly = rel.Q_poly - X(k)
                combo = combo + XPoly.const(c) * rel.relation_poly
                low = low + XPoly.const(c) * a_poly
                c = c * rel.b
            assert XPoly.const(c) * X(i2) - low - combo == X(i)
            assert pval(CTX2, c) > 0
            assert low.is_integral


class TestRedundancy:
    def test_exc_2_3_matches_worked_certificate(self, chain_c):
        c0, cof = redundancy_cofactor(chain_c, 2, 3)
        assert c0 == 8
        assert set(cof) == {3}
        assert cof[3] == -(4 * X(2) + 32 * X(3) + XPoly.const(7))

    def test_exc_1_2(self, chain_c):
        c0, cof = redundancy_cofactor(chain_c, 1, 2)
        assert c0 == 2
        gens = ideal_generators(chain_c)
        lhs = {g.source: g for g in gens.i2}[1].Q_poly
        rhs = XPoly.const(c0) * {g.source: g for g in gens.i2}[2].Q_poly
        for t, c in cof.items():
            rhs = rhs + c * gens.i1_by_target(t).relation_poly
        assert lhs == rhs

    def test_exc_0_3_integral(self, chain_c):
        c0, cof = redundancy_cofactor(chain_c, 0, 3)
        assert c0 == 128
        assert all(c.is_integral for c in cof.values())

    def test_equal_positions_rejected(self, chain_c):
        with pytest.raises(MalformedInput):
            redundancy_cofactor(chain_c, 1, 1)

    def test_finite_chain_rejected(self, chain_a):
        with pytest.raises(MalformedInput):
            redundancy_cofactor(chain_a, 0, 1)
