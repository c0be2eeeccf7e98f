"""Cross-cutting invariants that tie several modules together."""

import random
from fractions import Fraction

from valring.algebra import pval, resultant
from valring.expandval import truncate
from valring.keychain import segment
from valring.rewrite import total_s_building
from valring.verify import eval_e
from valring.xpoly import XPoly, mu0, power_expansion

from conftest import CTX2, rand_unipoly, rand_xpoly, recursive_truncate


class TestOracleCrossAgreement:
    def test_resultant_matches_final_truncation_on_unique_branches(
            self, chain_a, chain_b, chain_d):
        # the resultant route and the oracle-free recursive truncation at
        # the last pre-maximal position agree for deg h < deg g
        rng = random.Random(31)
        for chain in (chain_a, chain_b, chain_d):
            last = chain.star_positions[-1]
            done = 0
            while done < 30:
                h = rand_unipoly(rng, chain.g.degree - 1, 400)
                if h.is_zero:
                    continue
                done += 1
                via_res = Fraction(pval(CTX2, resultant(chain.g, h)), chain.g.degree)
                via_trunc = recursive_truncate(chain, last, h)
                assert via_res == via_trunc, (chain.g, h)

    def test_resultant_averages_branches_on_exc(self, chain_c):
        # two branches: the resultant sees both, the Hensel oracle one
        from valring.algebra import UniPoly
        h = UniPoly((-11, 1))
        avg = Fraction(pval(CTX2, resultant(chain_c.g, h)), 2)
        branch_val = chain_c.nu(h).value
        assert branch_val == 6 and avg == Fraction(7, 2)


class TestNeatCoefficientValues:
    def test_per_variable_decomposition_value_identity(self, all_chains):
        # for a total s-building F_s = sum F_gamma * X_top^gamma, each
        # coefficient's image has its value computed exactly at the window
        # top: nu_{l_q+s}((F_gamma)_e) = nu((F_gamma)_e)
        rng = random.Random(32)
        for chain in all_chains.values():
            seg = segment(chain)
            done = 0
            while done < 12:
                F = rand_xpoly(rng, chain.star_positions)
                if F.is_zero or not F.variables():
                    continue
                done += 1
                s = max(seg.offset(k) for k in F.variables())
                f_s = total_s_building(chain, F, s)
                if not f_s.variables():
                    continue
                top = max(f_s.variables())
                qtop = max(seg.q_of[k] for k in F.variables())
                pos = seg.plateaus[qtop - 1].first + s
                for e, coeff in enumerate(power_expansion(f_s, XPoly.var(top), top)):
                    img = eval_e(chain, coeff)
                    if img.is_zero:
                        continue
                    assert truncate(chain, pos, img) == chain.nu(img).value, (F, e)
