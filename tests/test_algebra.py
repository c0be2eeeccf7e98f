from fractions import Fraction

import random
import time
import tracemalloc
from itertools import zip_longest

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from valring import algebra
from valring.algebra import (
    INF,
    P_BOUND,
    BranchDescriptor,
    OracleValue,
    ResidueClass,
    ResidueField,
    UniPoly,
    ValuedFieldCtx,
    hensel_root,
    nu_oracle,
    pval,
    qexpand,
    resultant,
    _first_root,
    _intval,
    _is_prime,
)
from valring.errors import (
    MalformedDivisor,
    MalformedInput,
    NoConvergence,
    UndefinedResultant,
)

from conftest import qexpand_ref

C2 = ValuedFieldCtx(2)


def P(*coeffs):
    return UniPoly(coeffs)


def _el(fld, digits):
    """The element of fld with coefficients `digits` over F_p: the int
    sum c_i p^i."""
    return sum(c * fld.p ** i for i, c in enumerate(digits))


def _poly_el(fld, cs):
    """A polynomial over fld from coefficients given as digit tuples."""
    return tuple(_el(fld, c) for c in cs)


def _poly_coords(fld, f):
    """A polynomial over fld with each coefficient as its digit tuple."""
    return tuple(fld.coords(c) for c in f)


def _factors_coords(fld, f):
    return [(_poly_coords(fld, g), m) for g, m in fld.factor_monic(f)]


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
        out = qexpand_ref(P(3, 0, 1), P(1, 1))
        assert out == (P(4), P(-2), P(1))

    def test_low_degree_passthrough(self):
        assert qexpand_ref(UniPoly.x(), P(1, 1, 1)) == (UniPoly.x(),)

    def test_cube_in_quadratic(self):
        assert qexpand_ref(P(0, 0, 0, 1), P(1, 1, 1)) == (P(1), P(-1, 1))

    def test_non_monic_rejected(self):
        with pytest.raises(MalformedDivisor):
            qexpand(P(1, 1).nums, P(1, 2).nums)
        with pytest.raises(MalformedDivisor):
            qexpand(P(1, 1).nums, P(5).nums)
        with pytest.raises(MalformedDivisor):
            qexpand(P(1, 1).nums, UniPoly((Fraction(1, 2), 1)).nums)

    @settings(max_examples=60)
    @given(st.lists(st.integers(-9, 9), max_size=8),
           st.lists(st.integers(-4, 4), min_size=1, max_size=3))
    def test_roundtrip(self, fc, qlow):
        f = UniPoly(fc)
        q = UniPoly(qlow + [1])
        parts = qexpand_ref(f, q)
        acc = UniPoly()
        for j, c in enumerate(parts):
            assert c.degree < q.degree
            acc = acc + c * q ** j
        assert acc == f

    @settings(max_examples=150, derandomize=True)
    @given(st.lists(st.builds(Fraction, st.integers(-10 ** 6, 10 ** 6), st.integers(1, 12)),
                    max_size=10),
           st.lists(st.integers(-50, 50), min_size=1, max_size=4),
           st.sampled_from([1, 2, 3, 8, 5 ** 7]))
    def test_int_digits_match_reference(self, fc, qlow, a):
        """qexpand on f's numerators, digit j over f's den, is the divmod
        reference's digit j scaled by a^j: the Qt-expansion for q = a Qt."""
        f, q = UniPoly(fc), UniPoly(qlow + [1])
        digits = qexpand(f.nums, q.nums, a)
        assert all(not d or d[-1] for d in digits)
        assert tuple(UniPoly._make(d, f.den) for d in digits) == qexpand_ref(f, q, a)

    @pytest.mark.parametrize("qn", [(1, 2), (5,), (), (1, 0, 3), (1, -1)])
    def test_refuses_a_divisor_that_is_not_monic(self, qn):
        with pytest.raises(MalformedDivisor, match="monic integral nonconstant"):
            qexpand((1, 2, 3), qn)

    def test_refuses_a_non_integral_divisor(self):
        # a monic q with den > 1 leads its numerators with that den
        for q in (UniPoly((Fraction(1, 2), 1)), UniPoly((Fraction(1, 3), 0, 1))):
            assert q.is_monic and not q.is_integral
            with pytest.raises(MalformedDivisor):
                qexpand((1, 2, 3), q.nums)
            with pytest.raises(MalformedDivisor):
                qexpand_ref(UniPoly((1, 2, 3)), q)

    @settings(max_examples=200, derandomize=True)
    @given(st.lists(st.one_of(st.just(0), st.integers(-50, 50)), max_size=10),
           st.lists(st.integers(-6, 6), min_size=1, max_size=4))
    @example([5, 0, 0, -3, 0, 1], [0])          # q = x
    @example([1, 0, 2, 0, 0, 7, 0, 1], [-3])    # q = x - 3
    @example([0, 0, 0, 4], [2, 0, 1])
    def test_iexpand_digits(self, fc, qlow):
        """_iexpand, the Taylor shift at a linear key and the synthetic
        divisions at a longer one, gives the digits of repeated divmod."""
        while fc and not fc[-1]:
            fc.pop()
        qn = qlow + [1]
        digits = algebra._iexpand(fc, qn)
        assert all(len(d) < len(qn) and (not d or d[-1]) for d in digits)
        assert not digits or digits[-1]
        acc, qj = [0] * len(fc), [1]
        for d in digits:
            for i, c in enumerate(algebra._iconv(d, qj) if d else []):
                acc[i] += c
            qj = algebra._iconv(qj, qn)
        assert acc == fc
        f, q, ref = UniPoly(fc), UniPoly(qn), []
        while not f.is_zero:
            f, r = divmod(f, q)
            ref.append(list(r.nums))
        assert digits == ref


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

    def test_matches_bareiss_on_random_pairs(self):
        for f, g in random_pairs(random.Random(337), 300):
            assert resultant(f, g) == bareiss_resultant(f, g), (f, g)

    def test_matches_sympy_on_random_pairs(self):
        # each pair ordered so that deg f >= deg g: sympy 1.14's `resultant`
        # swaps a pair of odd degrees with deg f < deg g without the sign
        # (-1)^(deg f deg g), e.g. Res(2 - 3y, y^3 + 1) = -27 g(2/3) = -35
        # comes back as 35
        sympy = pytest.importorskip("sympy")
        y = sympy.symbols("y")
        for f, g in random_pairs(random.Random(733), 60):
            if f.degree < g.degree:
                f, g = g, f
            want = sympy.resultant(*(sum(sympy.Rational(c.numerator, c.denominator) * y ** i
                                         for i, c in enumerate(h.coeffs)) for h in (f, g)), y)
            got = resultant(f, g)
            assert (got.numerator, got.denominator) == (want.p, want.q), (f, g)


def random_pairs(rng, n):
    """n pairs of nonzero rational polynomials of degree 0 to 24, a fifth
    of them sharing a factor (resultant 0)."""
    def draw(deg):
        while True:
            cs = [Fraction(rng.randrange(-30, 31), rng.choice((1, 1, 2, 3, 4)))
                  for _ in range(deg + 1)]
            if cs[-1]:
                return UniPoly(cs)
    out = []
    for _ in range(n):
        f, g = draw(rng.randrange(25)), draw(rng.randrange(25))
        if rng.random() < 0.2:
            h = draw(rng.randrange(1, 4))
            f, g = f * h, g * h
        out.append((f, g))
    return out


def bareiss_resultant(f, g):
    """Res(f, g) as the fraction-free (Bareiss) determinant of the integer
    Sylvester matrix of the numerators, over den(f)^deg g den(g)^deg f."""
    n, m = f.degree, g.degree
    if n == 0 or m == 0:
        return f.coeff(0) ** m if n == 0 else g.coeff(0) ** n
    size = n + m
    rows = [[0] * i + list(reversed(f.nums)) + [0] * (size - n - 1 - i) for i in range(m)]
    rows += [[0] * i + list(reversed(g.nums)) + [0] * (size - m - 1 - i) for i in range(n)]
    sign, prev = 1, 1
    for k in range(size - 1):
        if rows[k][k] == 0:
            swap = next((i for i in range(k + 1, size) if rows[i][k]), None)
            if swap is None:
                return Fraction(0)
            rows[k], rows[swap] = rows[swap], rows[k]
            sign = -sign
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                rows[i][j] = (rows[i][j] * rows[k][k] - rows[i][k] * rows[k][j]) // prev
        prev = rows[k][k]
    return Fraction(sign * rows[-1][-1], f.den ** m * g.den ** n)


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

    def test_lifted_classes_are_pinned(self):
        # the classes the lifting loop returned while it evaluated g through
        # Fractions, on the digit-search cases above
        cases = [(2, GC, ResidueClass(3, 3), 3915), (2, GC, ResidueClass(5, 3), 181),
                 (3, P(-10, 3, 1), ResidueClass(1, 1), 531436),
                 (3, P(-10, 3, 1), ResidueClass(4, 2), 531436),
                 (5, P(-6, 0, 1), ResidueClass(1, 1), 35817391),
                 (7, P(-6, 0, 0, 1), ResidueClass(3, 1), 6118094552),
                 (3, P(-13, 0, 9, 0, 1), ResidueClass(2, 1), 259556)]
        for p, g, seed, value in cases:
            assert hensel_root(ValuedFieldCtx(p), g, seed, 12) == ResidueClass(value, 12)

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

    def test_value_is_a_record_not_a_scalar(self):
        # equality and hash both read (value, method), so equal values hash
        # equally and a value never equals a bare scalar
        a = OracleValue(Fraction(3), "resultant")
        assert a == OracleValue(3, "resultant") and hash(a) == hash(OracleValue(3, "resultant"))
        assert a != 3 and len({a, 3}) == 2 and a != OracleValue(3, "hensel")
        assert a.value == 3


class TestResidueField:
    def test_f4_modulus(self):
        f4 = ResidueField.of_degree(2, 2)
        assert f4.modulus == (1, 1, 1)

    def test_canonical_orders(self):
        # factor order, and so branch numbering, depends on these orders
        assert [ResidueField.of_degree(p, k).modulus
                for p, k in [(2, 2), (2, 3), (3, 2), (3, 3), (5, 2), (7, 2)]] == \
            [(1, 1, 1), (1, 1, 0, 1), (1, 0, 1), (1, 2, 0, 1), (2, 0, 1), (1, 0, 1)]
        f9, f3 = ResidueField.of_degree(3, 2), ResidueField(3)
        assert [f9.coords(a) for a in list(f9.elements())[:5]] == \
            [(0, 0), (1, 0), (2, 0), (0, 1), (1, 1)]
        assert [_poly_coords(f3, f) for f in list(f3.monic_polys(2))[:5]] == [
            ((0,), (0,), (1,)), ((0,), (1,), (1,)), ((0,), (2,), (1,)),
            ((1,), (0,), (1,)), ((1,), (1,), (1,))]
        f4 = ResidueField.of_degree(2, 2)
        assert list(f4.monic_polys(1)) == [(a, f4.one) for a in f4.elements()]
        assert [_poly_coords(f4, f) for f in list(f4.monic_polys(2))[:5]] == [
            ((0, 0), (0, 0), (1, 0)), ((0, 0), (1, 0), (1, 0)), ((0, 0), (0, 1), (1, 0)),
            ((0, 0), (1, 1), (1, 0)), ((1, 0), (0, 0), (1, 0))]

    def test_enumerators_are_lazy(self):
        # enumeration order is canonical but must not hold all p elements
        # in memory first: for p near 10^9 that is gigabytes
        p = 100003
        fp = ResidueField(p)
        tracemalloc.start()
        try:
            assert fp.coords(next(fp.elements())) == (0,)
            assert _poly_coords(fp, next(fp.monic_polys(2))) == ((0,), (0,), (1,))
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
                assert f8.pow(f8.mul(a, b), f8.p) == f8.mul(f8.pow(a, f8.p), f8.pow(b, f8.p))
                assert f8.pow(f8.add(a, b), f8.p) == f8.add(f8.pow(a, f8.p), f8.pow(b, f8.p))
        fixed = [a for a in els if f8.pow(a, f8.p) == a]
        assert len(fixed) == 2

    def test_factor_monic(self):
        f2 = ResidueField(2)
        one, zero = f2.one, f2.zero
        # y^2 + 1 = (y+1)^2 over F_2
        fac = f2.factor_monic((one, zero, one))
        assert fac == [((one, one), 2)]
        # y^2 + y + 1 irreducible
        fac = f2.factor_monic((one, one, one))
        assert fac == [((one, one, one), 1)]

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

    def test_extend_by(self):
        f2 = ResidueField(2)
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
        f = tuple(fld.from_int(c) if isinstance(c, int) else _el(fld, c) for c in cs)
        assert fld.factor_monic(f) == _trial_factor(fld, f)

    def test_degree_one_and_constants(self):
        f7 = ResidueField(7)
        assert _factors_coords(f7, _poly_el(f7, ((3,), (2,)))) == [(((5,), (1,)), 1)]
        assert f7.factor_monic(_poly_el(f7, ((3,),))) == []
        assert f7.factor_monic(()) == []

    # sympy sorts its own modular factors with a comparison it deprecates
    @pytest.mark.filterwarnings("ignore:(?s).*Ordered comparisons with modular integers")
    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
    def test_matches_sympy_over_prime_field(self, p):
        sympy = pytest.importorskip("sympy")
        y = sympy.symbols("y")
        fld = ResidueField(p)
        rng = random.Random(p)
        for _ in range(20):
            f = _random_product(fld, rng, rng.randint(1, 4), 4)
            _, facs = sympy.factor_list(sum(c * y ** i for i, (c,) in
                                            enumerate(_poly_coords(fld, f))),
                                        modulus=p)
            want = {(tuple((int(c) % p,) for c in reversed(sympy.Poly(h, y).all_coeffs())), m)
                    for h, m in facs}
            assert set(_factors_coords(fld, f)) == want

    def test_irreducible_sextic_over_f7_is_fast(self):
        # the residual of the generator [-36, 7, 13, 11, -4, -38, 1] at its
        # first step: irreducible of degree 6 over F_7
        f7 = ResidueField(7)
        f = _poly_el(f7, tuple((c,) for c in (6, 0, 6, 4, 3, 4, 1)))
        start = time.perf_counter()
        assert f7.factor_monic(f) == [(f, 1)]
        assert time.perf_counter() - start < 0.5


class TestSizeSwitch:
    """Fields of more than `algebra._ENUM_LIMIT` elements find roots and test
    irreducibility through `factor_monic`, smaller ones by enumeration.  With
    the limit patched to 1 every field takes the first route, with infinity
    the second, and the two must agree."""

    @staticmethod
    def _both(monkeypatch, compute):
        out = []
        for limit in (1, float("inf")):
            monkeypatch.setattr(algebra, "_ENUM_LIMIT", limit)
            out.append(compute())
        return out

    @pytest.mark.parametrize("p, k, max_deg", FIELDS)
    def test_routes_agree(self, p, k, max_deg, monkeypatch):
        fld = ResidueField.of_degree(p, k)
        rng = random.Random(31 * p + k)
        polys = [_random_product(fld, rng, rng.randint(1, 3), max_deg) for _ in range(15)]
        polys += [tuple(rng.randrange(fld.q) for _ in range(d)) + (1,)
                  for d in (1, 2, 2, 3, 3, 4) for _ in range(5)]
        polys.append((rng.randrange(1, fld.q),))  # a nonzero constant
        by_factor, by_enum = self._both(monkeypatch, lambda: (
            [_first_root(fld, f) for f in polys],
            [fld._poly_irreducible(f) for f in polys]))
        assert by_factor == by_enum
        roots, irred = by_enum
        assert None in roots and any(r is not None for r in roots)
        assert True in irred and False in irred
        for f, r in zip(polys, roots):
            assert (r is None) == all(fld.poly_eval(f, a) for a in fld.elements())

    @pytest.mark.parametrize("p, k, max_deg", FIELDS)
    def test_extensions_agree(self, p, k, max_deg, monkeypatch):
        fld = ResidueField.of_degree(p, k)
        rng = random.Random(17 * p + k)
        phis = []
        while len(phis) < 3:
            f = tuple(rng.randrange(fld.q) for _ in range(rng.randint(2, 3))) + (1,)
            if fld._poly_irreducible(f):
                phis.append(f)
        by_factor, by_enum = self._both(monkeypatch, lambda: [
            (big.modulus, gen, root)
            for big, gen, root in (fld.extend_by(phi) for phi in phis)])
        assert by_factor == by_enum


class TestIntElementsMatchTupleReference:
    """ResidueField against TupleField, the same algorithms on digit-tuple
    elements, read through coords."""

    @pytest.mark.parametrize("p, k, max_deg", FIELDS)
    def test_elements_and_arithmetic(self, p, k, max_deg):
        fld, ref = ResidueField.of_degree(p, k), TupleField.of_degree(p, k)
        assert fld.modulus == ref.modulus
        els = list(fld.elements())
        assert [fld.coords(a) for a in els] == list(ref.elements())
        assert [_el(fld, fld.coords(a)) for a in els] == els
        c = fld.coords
        assert (c(fld.zero), c(fld.one), c(fld.gen)) == (ref.zero, ref.one, ref.gen)
        for a in els:
            ra = c(a)
            assert c(fld.neg(a)) == ref.neg(ra)
            assert c(fld.pow(a, fld.p)) == ref.frobenius(ra)
            for n in (0, 1, 2, 5, fld.q - 2, fld.q + 3):
                assert c(fld.pow(a, n)) == ref.pow(ra, n)
            if a:
                assert c(fld.inv(a)) == ref.inv(ra)
            for b in els:
                rb = c(b)
                assert c(fld.add(a, b)) == ref.add(ra, rb)
                assert c(fld.sub(a, b)) == ref.sub(ra, rb)
                assert c(fld.mul(a, b)) == ref.mul(ra, rb)

    @pytest.mark.parametrize("p, k, max_deg", FIELDS)
    def test_divmod_and_factor_monic(self, p, k, max_deg):
        fld, ref = ResidueField.of_degree(p, k), TupleField.of_degree(p, k)
        rng = random.Random(7 * p + k)
        for _ in range(10):
            f = _random_product(fld, rng, rng.randint(1, 4), max_deg)
            g = _random_product(fld, rng, rng.randint(0, 2), max_deg)
            want = ref.poly_divmod(_poly_coords(fld, f), _poly_coords(fld, g))
            assert tuple(_poly_coords(fld, r) for r in fld.poly_divmod(f, g)) == want
            assert _factors_coords(fld, f) == ref.factor_monic(_poly_coords(fld, f))

    @pytest.mark.parametrize("p, k, max_deg", FIELDS)
    def test_extend_by(self, p, k, max_deg):
        fld, ref = ResidueField.of_degree(p, k), TupleField.of_degree(p, k)
        degrees = (2, 3) if fld.q ** 3 <= 512 else (2,)
        for d in degrees:
            irreducible = [phi for phi in fld.monic_polys(d)
                           if fld.factor_monic(phi) == [(phi, 1)]][:3]
            for phi in irreducible:
                big, gen_image, root = fld.extend_by(phi)
                rbig, rgen, rroot = ref.extend_by(_poly_coords(fld, phi))
                assert big.modulus == rbig.modulus
                assert (big.coords(gen_image), big.coords(root)) == (rgen, rroot)


# ---------------------------------------------------------------------------
# Reference: residue-field elements as digit tuples
# ---------------------------------------------------------------------------

class TupleField:
    """Reference for ResidueField: the same field and algorithms with each
    element an int tuple (c_0, ..., c_{k-1}), the layout whose canonical
    orders the int encoding must keep.  F_{p^k} = F_p[t]/(h) with h the
    canonical irreducible of degree k.

    Elements are int tuples of length k (coefficients of t-powers, each in
    range(p)).  Deterministic: defining polynomials are the
    lexicographically smallest irreducibles, scanning coefficients in
    {0, ..., p-1}.
    """

    def __init__(self, p: int, modulus=None):
        self._set_modulus(p, modulus)
        if self.k > 1 and not self._prime._poly_irreducible(self.modulus):
            raise MalformedInput("modulus is reducible")

    def _set_modulus(self, p: int, modulus):
        self.p = p
        if modulus is None:
            modulus = (0, 1)  # F_p itself: t
        self.modulus = tuple(int(c) % p for c in modulus)
        if self.modulus[-1] != 1:
            raise MalformedInput("modulus must be monic")
        self.k = len(self.modulus) - 1
        if self.k < 1:
            raise MalformedInput("modulus must be nonconstant")
        self._prime = self if self.k == 1 else TupleField(p)

    # -- construction -----------------------------------------------------

    @classmethod
    def prime(cls, p: int) -> "TupleField":
        return cls(p)

    @classmethod
    def of_degree(cls, p: int, k: int) -> "TupleField":
        """The canonical field of degree k: lexicographically smallest
        monic irreducible modulus."""
        if k == 1:
            return cls(p)
        base = cls(p)
        for coeffs in _ref_lex_tuples(p, k):
            cand = coeffs + (1,)
            if base._poly_irreducible(cand):
                # the scan has just tested cand: skip the test in __init__
                out = cls.__new__(cls)
                out._set_modulus(p, cand)
                return out
        raise MalformedInput("no irreducible found")  # unreachable

    # -- element arithmetic ------------------------------------------------

    @property
    def zero(self):
        return (0,) * self.k

    @property
    def one(self):
        return (1,) + (0,) * (self.k - 1)

    @property
    def gen(self):
        if self.k == 1:
            return self.one
        return (0, 1) + (0,) * (self.k - 2)

    def from_int(self, n: int):
        return (n % self.p,) + (0,) * (self.k - 1)

    def is_zero(self, a) -> bool:
        return all(c == 0 for c in a)

    def add(self, a, b):
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def neg(self, a):
        return tuple((-x) % self.p for x in a)

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        p = self.p
        prod = [0] * (2 * self.k - 1)
        for i, x in enumerate(a):
            if x == 0:
                continue
            for j, y in enumerate(b):
                prod[i + j] = (prod[i + j] + x * y) % p
        # reduce mod modulus
        for i in range(len(prod) - 1, self.k - 1, -1):
            c = prod[i]
            if c == 0:
                continue
            prod[i] = 0
            for j in range(self.k):
                prod[i - self.k + j] = (prod[i - self.k + j] - c * self.modulus[j]) % p
        return tuple(prod[: self.k])

    def pow(self, a, n: int):
        out = self.one
        while n:
            if n & 1:
                out = self.mul(out, a)
            a = self.mul(a, a)
            n >>= 1
        return out

    def inv(self, a):
        if self.is_zero(a):
            raise ZeroDivisionError("inverse of zero in residue field")
        if self.k == 1:
            return (pow(a[0], -1, self.p),)
        # extended Euclid in F_p[t]: s_i * a == r_i mod the modulus
        fp = self._prime
        r0, r1 = tuple((c,) for c in self.modulus), fp.poly_norm([(c,) for c in a])
        s0, s1 = (), (fp.one,)
        while len(r1) > 1:
            q, r = fp.poly_divmod(r0, r1)
            r0, r1, s0, s1 = r1, r, s1, fp.poly_sub(s0, fp.poly_mul(q, s1))
        c = pow(r1[0][0], -1, self.p)
        s = [sc * c % self.p for (sc,) in s1]
        return tuple(s) + (0,) * (self.k - len(s))

    def frobenius(self, a):
        return self.pow(a, self.p)

    def elements(self):
        """All elements in canonical (lexicographic tuple) order."""
        return _ref_lex_tuples(self.p, self.k)

    def __eq__(self, other):
        return (isinstance(other, TupleField) and other.p == self.p
                and other.modulus == self.modulus)

    def __hash__(self):
        return hash((self.p, self.modulus))

    def __repr__(self):
        return f"F_{self.p}^{self.k}"

    # -- polynomials over the field ----------------------------------------

    def poly_norm(self, cs):
        cs = list(cs)
        while cs and self.is_zero(cs[-1]):
            cs.pop()
        return tuple(cs)

    def poly_add(self, f, g):
        return self.poly_norm([self.add(a, b) for a, b in zip_longest(f, g, fillvalue=self.zero)])

    def poly_sub(self, f, g):
        return self.poly_add(f, [self.neg(c) for c in g])

    def poly_mul(self, f, g):
        if not f or not g:
            return ()
        out = [self.zero] * (len(f) + len(g) - 1)
        for i, a in enumerate(f):
            if self.is_zero(a):
                continue
            for j, b in enumerate(g):
                out[i + j] = self.add(out[i + j], self.mul(a, b))
        return self.poly_norm(out)

    def poly_mulmod(self, f, g, m):
        return self.poly_divmod(self.poly_mul(f, g), m)[1]

    def poly_powmod(self, f, n: int, m):
        out, f = (self.one,), self.poly_divmod(f, m)[1]
        while n:
            if n & 1:
                out = self.poly_mulmod(out, f, m)
            n >>= 1
            if n:
                f = self.poly_mulmod(f, f, m)
        return out

    def poly_gcd(self, f, g):
        """The monic gcd, by Euclid's algorithm."""
        while g:
            f, g = g, self.poly_divmod(f, g)[1]
        return self.poly_monic(f)

    def poly_divmod(self, f, g):
        f = list(f)
        if not g:
            raise ZeroDivisionError
        dg = len(g) - 1
        if len(f) - 1 < dg:
            return (), self.poly_norm(f)
        lcinv = None if g[-1] == self.one else self.inv(g[-1])
        quot = [self.zero] * (len(f) - dg)
        for k in range(len(f) - 1, dg - 1, -1):
            c = f[k]
            if self.is_zero(c):
                continue
            q = c if lcinv is None else self.mul(c, lcinv)
            quot[k - dg] = q
            for j in range(dg + 1):
                f[k - dg + j] = self.sub(f[k - dg + j], self.mul(q, g[j]))
        return self.poly_norm(quot), self.poly_norm(f)

    def poly_eval(self, f, a):
        acc = self.zero
        for c in reversed(f):
            acc = self.add(self.mul(acc, a), c)
        return acc

    def poly_monic(self, f):
        if not f:
            return ()
        lcinv = self.inv(f[-1])
        return tuple(self.mul(c, lcinv) for c in f)

    def monic_polys(self, degree: int):
        """Monic polynomials of the given degree in canonical order: c_0
        slowest, each coefficient counted as in elements()."""
        k = self.k
        for t in _ref_lex_tuples(self.p, k * degree):
            yield tuple(t[j:j + k] for j in range(k * (degree - 1), -1, -k)) + (self.one,)

    def _poly_irreducible(self, cs) -> bool:
        f = self.poly_norm([self.from_int(c) if isinstance(c, int) else c for c in cs])
        d = len(f) - 1
        if d < 1:
            return False
        if d == 1:
            return True
        for e in range(1, d // 2 + 1):
            for g in self.monic_polys(e):
                if not self.poly_divmod(f, g)[1]:
                    return False
        return True

    def factor_monic(self, f):
        """Distinct monic irreducible factors of f with multiplicities, in
        canonical order: by degree, then c_0, c_1, ... compared in turn, each
        coefficient ranked by its index in elements().

        Squarefree decomposition, distinct-degree factorization and
        Cantor-Zassenhaus equal-degree splitting (von zur Gathen and Gerhard,
        Modern Computer Algebra, ch. 14), with splitting polynomials drawn
        from a generator seeded inside the call, then sorted."""
        f = self.poly_monic(self.poly_norm(f))
        if len(f) - 1 < 1:
            return []
        if len(f) - 1 == 1:
            return [(f, 1)]
        rng = random.Random(0)
        out = [(fac, mult)
               for part, mult in self._squarefree(f)
               for d, same in self._distinct_degree(part)
               for fac in self._equal_degree(same, d, rng)]
        return sorted(out, key=lambda fm: (len(fm[0]), [c[::-1] for c in fm[0]]))

    def _squarefree(self, f):
        """(part, multiplicity) pairs of the monic f: each part is monic,
        squarefree and the product of the irreducible factors of f of that
        multiplicity."""
        out = []
        c = self.poly_gcd(f, self._poly_derivative(f))
        w = self.poly_divmod(f, c)[0]
        i = 1
        while len(w) > 1:
            # w: the factors of multiplicity >= i prime to p; w / gcd(w, c):
            # those of multiplicity exactly i
            y = self.poly_gcd(w, c)
            part = self.poly_divmod(w, y)[0]
            if len(part) > 1:
                out.append((part, i))
            w, c, i = y, self.poly_divmod(c, y)[0], i + 1
        if len(c) > 1:
            # c is a p-th power: take the p-th root, a -> a^(p^(k-1)) on
            # the coefficients of t^(p j)
            root = self.p ** (self.k - 1)
            c = tuple(self.pow(a, root) for a in c[::self.p])
            out.extend((part, m * self.p) for part, m in self._squarefree(c))
        return out

    def _poly_derivative(self, f):
        return self.poly_norm([tuple(j * x % self.p for x in a)
                               for j, a in enumerate(f) if j])

    def _distinct_degree(self, f):
        """(d, product of the degree-d irreducible factors) of the monic
        squarefree f, from gcd(f, t^(q^d) - t)."""
        x = (self.zero, self.one)
        out, h, d = [], x, 0
        while len(f) - 1 >= 2 * (d + 1):
            d += 1
            h = self.poly_powmod(h, self.p ** self.k, f)
            g = self.poly_gcd(f, self.poly_sub(h, x))
            if len(g) > 1:
                out.append((d, g))
                f = self.poly_divmod(f, g)[0]
                h = self.poly_divmod(h, f)[1]
        if len(f) > 1:
            out.append((len(f) - 1, f))
        return out

    def _equal_degree(self, f, d, rng):
        """The irreducible factors of the monic squarefree f, all of degree d:
        gcd(f, b) with b = a^((q^d - 1)/2) - 1 for odd p, or the trace
        sum_{j < kd} a^(2^j) for p = 2, splits f for about half the a."""
        if len(f) - 1 == d:
            return [f]
        while True:
            a = self.poly_norm([tuple(rng.randrange(self.p) for _ in range(self.k))
                                for _ in range(len(f) - 1)])
            if self.p == 2:
                b = t = a
                for _ in range(self.k * d - 1):
                    t = self.poly_mulmod(t, t, f)
                    b = self.poly_add(b, t)
            else:
                e = (self.p ** (self.k * d) - 1) // 2
                b = self.poly_sub(self.poly_powmod(a, e, f), (self.one,))
            g = self.poly_gcd(f, b)
            if 1 < len(g) < len(f):
                return (self._equal_degree(g, d, rng)
                        + self._equal_degree(self.poly_divmod(f, g)[0], d, rng))

    def extend_by(self, phi):
        """Extension by an irreducible phi over this field.

        Returns (big, gen_image, root): the canonical flat field of degree
        k*deg(phi), the image of this field's generator inside it, and the
        canonical (lexicographically first) root of phi there.
        """
        d = len(phi) - 1
        big = TupleField.of_degree(self.p, self.k * d)
        gen_image = _ref_embed_generator(self, big)
        lifted = tuple(_ref_embedded(big, gen_image, c) for c in phi)
        root = _ref_first_root(big, lifted)
        if root is None:
            raise AssertionError("irreducible factor has no root in its splitting degree")
        return big, gen_image, root


def _ref_lex_tuples(p: int, k: int):
    """Int tuples of length k over range(p), counting with the first entry
    as the fastest digit.  Lazy in p: itertools.product would hold
    range(p) in memory, gigabytes for p near 10^9."""
    for n in range(p ** k):
        digits = []
        for _ in range(k):
            digits.append(n % p)
            n //= p
        yield tuple(digits)


def _ref_embed_generator(small: TupleField, big: TupleField):
    """Image of small's generator in big: the canonical root of small's
    modulus."""
    if small.k == 1:
        return big.one
    lifted = tuple(big.from_int(c) for c in small.modulus)
    root = _ref_first_root(big, lifted)
    if root is None:
        raise AssertionError("no embedding root found")
    return root


def _ref_first_root(field: TupleField, poly):
    for a in field.elements():
        if field.is_zero(field.poly_eval(poly, a)):
            return a
    return None


def _ref_embedded(big: TupleField, gen_image, elt):
    """Map an element of a subfield into big, its generator to gen_image."""
    return big.poly_eval([big.from_int(c) for c in elt], gen_image)
