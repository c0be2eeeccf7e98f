from fractions import Fraction

import random
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from valring.algebra import (
    INF,
    P_BOUND,
    BranchDescriptor,
    ResidueClass,
    ResidueField,
    UniPoly,
    ValuedFieldCtx,
    hensel_root,
    nu_oracle,
    pval,
    qexpand,
    resultant,
    _intval,
    _is_prime,
)
from valring.errors import (
    MalformedDivisor,
    MalformedInput,
    NoConvergence,
    UndefinedResultant,
)

C2 = ValuedFieldCtx(2)


def P(*coeffs):
    return UniPoly(coeffs)


class TestPval:
    def test_twelve(self):
        assert pval(C2, 12) == 2

    def test_fraction(self):
        assert pval(C2, Fraction(3, 8)) == -3

    def test_zero(self):
        assert pval(C2, 0) is INF

    def test_prime_check(self):
        with pytest.raises(MalformedInput):
            ValuedFieldCtx(6)

    def test_primality_agrees_with_trial_division(self):
        def trial(n):
            return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))
        assert [n for n in range(30000) if _is_prime(n)] == \
            [n for n in range(30000) if trial(n)]

    @pytest.mark.parametrize("n, want", [
        (561, False), (2047, False), (3215031751, False),    # strong pseudoprimes
        (3825123056546413051, False),                        # ... to bases 2..23
        (318665857834031151167461, False),                   # ... to bases 2..37
        (1000000007, True), (2 ** 61 - 1, True), (2 ** 89 - 1, True),
        (2 ** 67 - 1, False),
    ])
    def test_miller_rabin(self, n, want):
        assert _is_prime(n) == want

    def test_p_bound_rejected(self):
        # the bound is the least strong pseudoprime to every base 2..41
        assert P_BOUND == 1287836182261 * 2575672364521 and _is_prime(P_BOUND)
        with pytest.raises(MalformedInput, match=str(P_BOUND)):
            ValuedFieldCtx(P_BOUND)
        assert ValuedFieldCtx(2 ** 61 - 1).p == 2 ** 61 - 1

    @given(st.integers(min_value=-500, max_value=500).filter(lambda n: n != 0),
           st.integers(min_value=-500, max_value=500).filter(lambda n: n != 0))
    def test_multiplicative(self, a, b):
        assert pval(C2, Fraction(a) * b) == pval(C2, a) + pval(C2, b)

    @given(st.integers(min_value=-500, max_value=500),
           st.integers(min_value=-500, max_value=500))
    def test_ultrametric(self, a, b):
        va, vb, vs = pval(C2, a), pval(C2, b), pval(C2, a + b)
        assert vs >= min(va, vb)
        if va != vb:
            assert vs == min(va, vb)


def _intval_one_factor_at_a_time(p, n):
    """Reference valuation: strip one factor of p per division."""
    if n == 0:
        return INF
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


class TestIntval:
    @pytest.mark.parametrize("p", [2, 3, 1000000007])
    def test_matches_one_factor_at_a_time(self, p):
        for v in range(301):
            for unit in (1, -1, p + 1, 1 - 2 * p, 3 * p ** 5 - 1):
                n = unit * p ** v
                assert _intval(p, n) == _intval_one_factor_at_a_time(p, n) == v, (p, v, unit)
        assert _intval(p, 0) is INF

    @given(st.integers(min_value=-10 ** 40, max_value=10 ** 40), st.sampled_from([2, 3, 5, 7]))
    def test_random_integers(self, n, p):
        assert _intval(p, n) == _intval_one_factor_at_a_time(p, n)


class TestInfinity:
    def test_absorbs_addition(self):
        assert INF + 3 is INF
        assert Fraction(1, 2) + INF is INF

    def test_ordering(self):
        assert INF > Fraction(10 ** 9)
        assert not (INF > INF)
        assert Fraction(2) < INF
        assert min(Fraction(1), INF) == Fraction(1)


class TestUniPoly:
    def test_trailing_zeros_stripped(self):
        assert P(1, 2, 0, 0).coeffs == (1, 2)
        assert P(0, 0).is_zero

    def test_divmod_roundtrip(self):
        f = P(3, 0, 1)
        q = P(1, 1)
        d, r = divmod(f, q)
        assert d * q + r == f

    def test_repr(self):
        assert repr(P(3, 0, 1)) == "x^2 + 3"

    def test_power_is_repeated_multiplication(self):
        x = P(Fraction(1, 2), -3, 1)
        acc = P(1)
        for n in range(10):
            assert x ** n == acc, n
            acc = acc * x


class TestQexpand:
    def test_quadratic_shift(self):
        out = qexpand(P(3, 0, 1), P(1, 1))
        assert out == (P(4), P(-2), P(1))

    def test_low_degree_passthrough(self):
        assert qexpand(UniPoly.x(), P(1, 1, 1)) == (UniPoly.x(),)

    def test_cube_in_quadratic(self):
        assert qexpand(P(0, 0, 0, 1), P(1, 1, 1)) == (P(1), P(-1, 1))

    def test_non_monic_rejected(self):
        with pytest.raises(MalformedDivisor):
            qexpand(P(1, 1), P(1, 2))
        with pytest.raises(MalformedDivisor):
            qexpand(P(1, 1), P(5))

    @settings(max_examples=60)
    @given(st.lists(st.integers(-9, 9), max_size=8),
           st.lists(st.integers(-4, 4), min_size=1, max_size=3))
    def test_roundtrip(self, fc, qlow):
        f = UniPoly(fc)
        q = UniPoly(qlow + [1])
        parts = qexpand(f, q)
        acc = UniPoly()
        for j, c in enumerate(parts):
            assert c.degree < q.degree
            acc = acc + c * q ** j
        assert acc == f


class TestResultant:
    def test_worked_values(self):
        assert resultant(P(3, 0, 1), P(1, 1)) == 4
        assert resultant(P(1, 1), P(1, 1)) == 0
        assert resultant(P(7, 0, 1), P(-3, 1)) == 16

    def test_zero_rejected(self):
        with pytest.raises(UndefinedResultant):
            resultant(UniPoly(), P(1, 1))

    @settings(max_examples=40)
    @given(st.lists(st.integers(-6, 6), min_size=2, max_size=4),
           st.integers(-8, 8))
    def test_linear_factor_is_evaluation(self, fc, a):
        f = UniPoly(fc + [1])
        g = P(-a, 1)
        assert resultant(f, g) == (-1) ** f.degree * f(a)

    def test_multiplicative_in_first_argument(self):
        f1, f2, g = P(1, 2, 1), P(3, 1), P(5, 1, 1)
        assert resultant(f1 * f2, g) == resultant(f1, g) * resultant(f2, g)


GC = P(7, 0, 1)  # the split quadratic used by the Hensel examples


class TestHensel:
    def test_depth7(self):
        r = hensel_root(C2, GC, ResidueClass(3, 3), 7)
        assert (r.value, r.precision) == (75, 7)
        assert (75 ** 2 + 7) % 128 == 0

    def test_depth4(self):
        assert hensel_root(C2, GC, ResidueClass(3, 3), 4).value == 11

    def test_linear(self):
        assert hensel_root(C2, P(-5, 1), ResidueClass(5, 1), 4).value == 5

    def test_bad_seed(self):
        # v(g(1)) = 3 is not > 2*v(g'(1)) = 2... it is; use seed 0: g(0)=7 odd
        with pytest.raises(NoConvergence):
            hensel_root(C2, GC, ResidueClass(0, 1), 4)

    def test_other_branch(self):
        r = hensel_root(C2, GC, ResidueClass(5, 3), 7)
        assert (r.value + 75) % 128 == 0  # the two roots are negatives

    @pytest.mark.parametrize("p, g, seed", [
        (2, GC, ResidueClass(3, 3)), (2, GC, ResidueClass(5, 3)),
        (3, P(-10, 3, 1), ResidueClass(1, 1)), (3, P(-10, 3, 1), ResidueClass(4, 2)),
        (5, P(-6, 0, 1), ResidueClass(1, 1)), (7, P(-6, 0, 0, 1), ResidueClass(3, 1)),
        (3, P(-13, 0, 9, 0, 1), ResidueClass(2, 1)),
    ])
    def test_solved_digits_match_digit_search(self, p, g, seed):
        ctx = ValuedFieldCtx(p)
        got = hensel_root(ctx, g, seed, 12)
        # reference: try every digit, as the lifting loop once did
        dg = g.derivative()
        x = seed.value
        d = pval(ctx, dg(x))
        k = pval(ctx, g(x)) - d
        while k < 12:
            x = next(x + t * p ** k for t in range(p)
                     if pval(ctx, g(x + t * p ** k)) >= d + k + 1)
            k += 1
        assert got == ResidueClass(x % p ** 12, 12)

    def test_large_prime(self):
        p = 1000000007  # p = 3 mod 4: a square root of 2 is 2^((p+1)/4)
        r = hensel_root(ValuedFieldCtx(p), P(-2, 0, 1), ResidueClass(pow(2, (p + 1) // 4, p), 1), 6)
        assert (r.value ** 2 - 2) % p ** 6 == 0


UNIQUE = BranchDescriptor("unique")
HENSEL_C = BranchDescriptor("hensel", ResidueClass(3, 3))


class TestNuOracle:
    def test_exa_linear(self):
        out = nu_oracle(C2, P(3, 0, 1), UNIQUE, P(1, 1))
        assert out.value == 1
        assert out.method == "resultant"

    def test_exa_divisible(self):
        out = nu_oracle(C2, P(3, 0, 1), UNIQUE, P(3, 0, 1))
        assert out.value is INF

    def test_exc_hensel(self):
        out = nu_oracle(C2, GC, HENSEL_C, P(-11, 1))
        assert out.value == 6
        assert out.method == "hensel"

    def test_exc_deep(self):
        assert nu_oracle(C2, GC, HENSEL_C, P(-75, 1)).value == 8

    def test_exc_resultant_disagrees_with_branch(self):
        # two branches: the averaged resultant value is not the branch value
        avg = nu_oracle(C2, GC, UNIQUE, P(-11, 1)).value
        assert avg == Fraction(pval(C2, resultant(GC, P(-11, 1))), 2)
        assert avg != 6

    @pytest.mark.parametrize("seed, h, want", [
        (ResidueClass(1, 1), P(5, 1), INF),                        # x + 5 at -5
        (ResidueClass(1, 1), P(5, 6, 1), INF),                     # (x + 5)(x + 1)
        (ResidueClass(1, 1), P(Fraction(5, 9), Fraction(1, 9)), INF),
        (ResidueClass(1, 1), P(-2, 1), 0),                         # v(-5 - 2) = 0
        (ResidueClass(2, 1), P(5, 1), 0),                          # v(2 + 5) = 0
        (ResidueClass(2, 1), P(-2, 1), INF),                       # x - 2 at 2
    ])
    def test_reducible_generator(self, seed, h, want):
        # g = (x + 5)(x - 2) over Q_3: Res(g, h) = 0 whenever h shares a
        # factor with g, and the value is infinite exactly at that factor's root
        out = nu_oracle(ValuedFieldCtx(3), P(-10, 3, 1), BranchDescriptor("hensel", seed), h)
        assert (out.value, out.method) == (want, "hensel")


class TestResidueField:
    def test_f4_modulus(self):
        f4 = ResidueField.of_degree(2, 2)
        assert f4.modulus == (1, 1, 1)

    def test_canonical_orders(self):
        # factor order, and so branch numbering, depends on these orders
        assert [ResidueField.of_degree(p, k).modulus
                for p, k in [(2, 2), (2, 3), (3, 2), (3, 3), (5, 2), (7, 2)]] == \
            [(1, 1, 1), (1, 1, 0, 1), (1, 0, 1), (1, 2, 0, 1), (2, 0, 1), (1, 0, 1)]
        assert list(ResidueField.of_degree(3, 2).elements())[:5] == \
            [(0, 0), (1, 0), (2, 0), (0, 1), (1, 1)]
        assert list(ResidueField.prime(3).monic_polys(2))[:5] == [
            ((0,), (0,), (1,)), ((0,), (1,), (1,)), ((0,), (2,), (1,)),
            ((1,), (0,), (1,)), ((1,), (1,), (1,))]
        f4 = ResidueField.of_degree(2, 2)
        assert list(f4.monic_polys(1)) == [(a, f4.one) for a in f4.elements()]
        assert list(f4.monic_polys(2))[:5] == [
            ((0, 0), (0, 0), (1, 0)), ((0, 0), (1, 0), (1, 0)), ((0, 0), (0, 1), (1, 0)),
            ((0, 0), (1, 1), (1, 0)), ((1, 0), (0, 0), (1, 0))]

    def test_enumerators_are_lazy(self):
        # enumeration order is canonical but must not hold all p elements
        # in memory first: for p near 10^9 that is gigabytes
        p = 100003
        fp = ResidueField.prime(p)
        tracemalloc.start()
        try:
            assert next(fp.elements()) == (0,)
            assert next(fp.monic_polys(2)) == ((0,), (0,), (1,))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000

    def test_arithmetic(self):
        f4 = ResidueField.of_degree(2, 2)
        w = f4.gen
        assert f4.mul(w, w) == f4.add(w, f4.one)  # w^2 = w + 1
        assert f4.mul(w, f4.inv(w)) == f4.one

    @pytest.mark.parametrize("p, k", [(2, 1), (11, 1), (2, 3), (3, 2), (5, 2)])
    def test_inverse_is_fermat_power(self, p, k):
        fld = ResidueField.of_degree(p, k)
        for a in list(fld.elements())[1:]:
            assert fld.inv(a) == fld.pow(a, p ** k - 2)

    def test_frobenius_automorphism_fixing_prime_field(self):
        f8 = ResidueField.of_degree(2, 3)
        els = list(f8.elements())
        for a in els:
            for b in els[:5]:
                assert f8.frobenius(f8.mul(a, b)) == f8.mul(f8.frobenius(a), f8.frobenius(b))
                assert f8.frobenius(f8.add(a, b)) == f8.add(f8.frobenius(a), f8.frobenius(b))
        fixed = [a for a in els if f8.frobenius(a) == a]
        assert len(fixed) == 2

    def test_factor_monic(self):
        f2 = ResidueField.prime(2)
        one, zero = f2.one, f2.zero
        # y^2 + 1 = (y+1)^2 over F_2
        fac = f2.factor_monic((one, zero, one))
        assert fac == [((one, one), 2)]
        # y^2 + y + 1 irreducible
        fac = f2.factor_monic((one, one, one))
        assert fac == [((one, one, one), 1)]

    def test_reducible_modulus_rejected(self):
        with pytest.raises(MalformedInput):
            ResidueField(2, (1, 0, 1))

    def test_of_degree_tests_each_candidate_once(self, monkeypatch):
        calls = []
        real = ResidueField._poly_irreducible

        def counted(self, cs):
            calls.append(tuple(cs))
            return real(self, cs)

        monkeypatch.setattr(ResidueField, "_poly_irreducible", counted)
        f16 = ResidueField.of_degree(2, 4)
        assert f16.modulus == (1, 1, 0, 0, 1)
        # x^4, x^4 + 1, x^4 + x, x^4 + x + 1 in scan order, the winner once
        assert calls == [(0, 0, 0, 0, 1), (1, 0, 0, 0, 1), (0, 1, 0, 0, 1),
                         (1, 1, 0, 0, 1)]
        # a user-supplied modulus is still checked
        calls.clear()
        ResidueField(2, (1, 1, 0, 0, 1))
        assert calls == [(1, 1, 0, 0, 1)]

    def test_extend_by(self):
        f2 = ResidueField.prime(2)
        one = f2.one
        big, gen_img, root = f2.extend_by((one, one, one))
        assert big.k == 2
        assert big.is_zero(big.add(big.add(big.mul(root, root), root), big.one))


def _trial_factor(fld, f):
    """Reference factorization by trial division: every monic polynomial of
    every degree, in canonical order."""
    f = fld.poly_monic(fld.poly_norm(f))
    out = []
    deg = 1
    while len(f) - 1 >= 1:
        for g in fld.monic_polys(deg):
            mult = 0
            while True:
                q, r = fld.poly_divmod(f, g)
                if r:
                    break
                f, mult = q, mult + 1
            if mult:
                out.append((g, mult))
        deg += 1
    return out


def _random_product(fld, rng, n_factors, max_deg):
    """A random polynomial with repeated factors: a product of random monic
    polynomials, some raised to a power, times a random unit."""
    els = list(fld.elements())
    f = (rng.choice(els[1:]),)
    for _ in range(n_factors):
        g = tuple(rng.choice(els) for _ in range(rng.randint(1, max_deg))) + (fld.one,)
        for _ in range(rng.choice((1, 1, 2, 3))):
            f = fld.poly_mul(f, g)
    return f


# (p, k, largest random factor degree): q^max_deg keeps trial division small
FIELDS = [(2, 1, 6), (3, 1, 4), (5, 1, 3), (7, 1, 3), (11, 1, 2),
          (2, 2, 3), (2, 3, 2), (3, 2, 2), (5, 2, 2)]


class TestFactorMonic:
    @pytest.mark.parametrize("p, k, max_deg", FIELDS)
    def test_matches_trial_division(self, p, k, max_deg):
        fld = ResidueField.of_degree(p, k)
        rng = random.Random(1000 * p + k)
        for _ in range(25):
            f = _random_product(fld, rng, rng.randint(1, 4), max_deg)
            assert fld.factor_monic(f) == _trial_factor(fld, f)

    @pytest.mark.parametrize("p, k, cs", [
        (3, 1, (2, 0, 0, 1)),                  # y^3 - 1 = (y - 1)^3
        (3, 1, (1, 0, 0, 2, 0, 0, 1)),         # (y^3 + 1)^2
        (2, 1, (1, 0, 1, 0, 1)),               # (y^2 + y + 1)^2
        (2, 2, ((0, 1), (0, 0), (1, 0))),      # y^2 + w = (y + w^2)^2 over F_4
        (3, 2, ((1, 1), (0, 0), (0, 0), (1, 0))),   # y^3 + (1 + w) over F_9
        (5, 1, (1, 0, 0, 0, 0, 4, 0, 0, 0, 0, 1)),  # y^10 + 4 y^5 + 1 = (y^5 - 3)^2
        (2, 3, ((0, 1, 0),) + ((0, 0, 0),) * 3 + ((1, 0, 0),)),  # y^4 + w over F_8
    ])
    def test_vanishing_derivative(self, p, k, cs):
        fld = ResidueField.of_degree(p, k)
        f = tuple(fld.from_int(c) if isinstance(c, int) else c for c in cs)
        assert fld.factor_monic(f) == _trial_factor(fld, f)

    def test_degree_one_and_constants(self):
        f7 = ResidueField.prime(7)
        assert f7.factor_monic(((3,), (2,))) == [(((5,), (1,)), 1)]
        assert f7.factor_monic(((3,),)) == []
        assert f7.factor_monic(()) == []

    # sympy sorts its own modular factors with a comparison it deprecates
    @pytest.mark.filterwarnings("ignore:(?s).*Ordered comparisons with modular integers")
    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
    def test_matches_sympy_over_prime_field(self, p):
        sympy = pytest.importorskip("sympy")
        y = sympy.symbols("y")
        fld = ResidueField.prime(p)
        rng = random.Random(p)
        for _ in range(20):
            f = _random_product(fld, rng, rng.randint(1, 4), 4)
            _, facs = sympy.factor_list(sum(c * y ** i for i, (c,) in enumerate(f)),
                                        modulus=p)
            want = {(tuple((int(c) % p,) for c in reversed(sympy.Poly(h, y).all_coeffs())), m)
                    for h, m in facs}
            assert set(fld.factor_monic(f)) == want

    def test_irreducible_sextic_over_f7_is_fast(self):
        # the residual of the generator [-36, 7, 13, 11, -4, -38, 1] at its
        # first step: irreducible of degree 6 over F_7
        f7 = ResidueField.prime(7)
        f = tuple((c,) for c in (6, 0, 6, 4, 3, 4, 1))
        start = time.perf_counter()
        assert f7.factor_monic(f) == [(f, 1)]
        assert time.perf_counter() - start < 0.5
