"""Residue-field factorization that splits off roots first.

On fields of at most `algebra._ROOT_LIMIT` elements `factor_monic` divides
out each root that `ResidueField.roots` finds by enumeration, with its
multiplicity, takes a root-free rest of degree <= 3 as irreducible and sends
only a rest of degree >= 4 to squarefree, distinct-degree and equal-degree
splitting.  These tests hold it to references that share none of that:

- `_factor_table`: every monic polynomial up to a degree, factored by
  multiplying monic irreducibles together (unique factorization turned
  around; it needs only `poly_mul`), itself checked against
  `test_algebra._trial_factor`;
- `test_algebra.TupleField`, the general path on digit-tuple elements;
- brute-force root search in `TupleField` arithmetic;
- the general path itself, with `_ROOT_LIMIT` patched to 0.
"""

import random

import pytest

from test_algebra import TupleField, _factors_coords, _poly_coords, _trial_factor
from valring import algebra
from valring.algebra import ResidueField


def _factor_table(fld, max_deg):
    """{monic f: factor_monic(f)} for every monic f of degree <= max_deg.
    Degree by degree, a monic polynomial that no product of the irreducibles
    found so far reaches is irreducible; each new irreducible h then
    multiplies, to every power that fits, every entry made without it."""
    key = lambda fm: (len(fm[0]), fm[0])
    table = {(1,): []}
    for d in range(1, max_deg + 1):
        for h in fld.monic_polys(d):
            if h in table:
                continue
            for g, facs in list(table.items()):
                prod, m = g, 0
                while len(prod) - 1 + d <= max_deg:
                    prod, m = fld.poly_mul(prod, h), m + 1
                    table[prod] = sorted(facs + [(h, m)], key=key)
    return table


def _prime_power(q):
    """(p, k) with p^k = q, or None when q is no prime power."""
    p = next(d for d in range(2, q + 1) if q % d == 0)
    k = 0
    while q % p == 0:
        q, k = q // p, k + 1
    return (p, k) if q == 1 else None


def _boundary_fields():
    """The largest field of at most `_ROOT_LIMIT` elements and the smallest
    of more."""
    lim = algebra._ROOT_LIMIT
    below = max(q for q in range(2, lim + 1) if _prime_power(q))
    above = next(q for q in range(lim + 1, 2 * lim + 2) if _prime_power(q))
    return (ResidueField.of_degree(*_prime_power(below)),
            ResidueField.of_degree(*_prime_power(above)))


# F_2, F_3, F_4, F_5, F_7, F_8 and F_9 as (p, k)
FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)]
# (p, k, degree up to which every monic polynomial is compared); beyond it
# an extension field's factorizations take tens of seconds, so degrees up
# to 5 are sampled against TupleField instead
EVERY = [(2, 1, 5), (3, 1, 5), (2, 2, 5), (5, 1, 5), (7, 1, 4), (2, 3, 3), (3, 2, 3)]


def _random_monic(fld, rng, d):
    return tuple(rng.randrange(fld.q) for _ in range(d)) + (1,)


def _irreducible_quadratics(fld):
    return [h for h in fld.monic_polys(2) if _trial_factor(fld, h) == [(h, 1)]]


class TestEveryMonic:
    @pytest.mark.parametrize("p, k, max_deg", [(2, 1, 5), (3, 1, 4), (2, 2, 3), (5, 1, 3),
                                               (7, 1, 2), (2, 3, 2), (3, 2, 2)])
    def test_table_matches_trial_division(self, p, k, max_deg):
        fld = ResidueField.of_degree(p, k)
        table = _factor_table(fld, max_deg)
        assert len(table) == sum(fld.q ** d for d in range(max_deg + 1))
        for f, facs in table.items():
            assert facs == _trial_factor(fld, f)

    @pytest.mark.parametrize("p, k, max_deg", EVERY)
    def test_every_monic_matches_table(self, p, k, max_deg):
        fld = ResidueField.of_degree(p, k)
        assert fld.q <= algebra._ROOT_LIMIT
        table = _factor_table(fld, max_deg)
        for d in range(2, max_deg + 1):
            for f in fld.monic_polys(d):
                assert fld.factor_monic(f) == table[f]

    @pytest.mark.parametrize("p, k", FIELDS)
    def test_matches_tuple_reference(self, p, k):
        fld, ref = ResidueField.of_degree(p, k), TupleField.of_degree(p, k)
        rng = random.Random(100 * p + k)
        for d in range(2, 6):
            for _ in range(40):
                f = _random_monic(fld, rng, d)
                assert _factors_coords(fld, f) == ref.factor_monic(_poly_coords(fld, f))


class TestRootFreeRest:
    """Rests that the root route must not take as irreducible."""

    @pytest.mark.parametrize("p, k", FIELDS)
    def test_products_of_irreducible_quadratics(self, p, k):
        fld = ResidueField.of_degree(p, k)
        quads = _irreducible_quadratics(fld)
        rng = random.Random(7 * p + k)
        pairs = [(a, b) for i, a in enumerate(quads) for b in quads[i:]]
        for a, b in rng.sample(pairs, min(len(pairs), 25)):
            f = fld.poly_mul(a, b)
            want = [(a, 2)] if a == b else sorted([(a, 1), (b, 1)])
            assert fld.factor_monic(f) == want
            # with a repeated root besides
            lin = (rng.randrange(fld.q), 1)
            g = fld.poly_mul(fld.poly_mul(f, lin), lin)
            assert fld.factor_monic(g) == [(lin, 2)] + want

    def test_square_of_the_quadratic_over_f2(self):
        f2 = ResidueField(2)
        # (y^2 + y + 1)^2 = y^4 + y^2 + 1: no root, degree 4, one factor
        assert f2.factor_monic((1, 0, 1, 0, 1)) == [((1, 1, 1), 2)]
        # times y^3 (y + 1)
        f = f2.poly_mul((1, 0, 1, 0, 1), (0, 0, 0, 1, 1))
        assert f2.factor_monic(f) == [((0, 1), 3), ((1, 1), 1), ((1, 1, 1), 2)]

    def test_repeated_roots(self):
        f7 = ResidueField(7)
        # (y - 1)^3 (y - 2)^2 (y^2 + 1): roots 1 and 2, rest irreducible over F_7
        f = (1,)
        for g in [(6, 1)] * 3 + [(5, 1)] * 2 + [(1, 0, 1)]:
            f = f7.poly_mul(f, g)
        assert f7.factor_monic(f) == [((5, 1), 2), ((6, 1), 3), ((1, 0, 1), 1)]
        assert list(f7.roots(f)) == [1, 2]

    def test_irreducible_quartic_and_quintic(self):
        f3 = ResidueField(3)
        for f in [(2, 0, 0, 1, 1), (1, 2, 0, 0, 0, 1)]:  # irreducible over F_3
            assert _trial_factor(f3, f) == [(f, 1)]
            assert f3.factor_monic(f) == [(f, 1)]


class TestRoots:
    @pytest.mark.parametrize("p, k", FIELDS + [(11, 1), (5, 2)])
    def test_matches_brute_force(self, p, k):
        fld, ref = ResidueField.of_degree(p, k), TupleField.of_degree(p, k)
        els = list(fld.elements())
        rng = random.Random(13 * p + k)
        for _ in range(30):
            d = rng.randint(0, 5)
            f = tuple(rng.randrange(fld.q) for _ in range(d)) + (rng.randrange(1, fld.q),)
            want = [a for a in els
                    if ref.is_zero(ref.poly_eval(_poly_coords(fld, f), fld.coords(a)))]
            assert list(fld.roots(f)) == want

    def test_first_root_reads_roots(self):
        f5 = ResidueField(5)
        f = f5.poly_mul((2, 1), (4, 1))  # roots 3 and 1
        assert list(f5.roots(f)) == [1, 3]
        assert algebra._first_root(f5, f) == 1
        assert algebra._first_root(f5, (2, 0, 1)) is None  # y^2 + 2: 2 is no square mod 5


class TestRootLimit:
    """`_ROOT_LIMIT` only picks a route: patched to 0 every field takes the
    general path, patched to infinity every field splits off roots, and the
    factorizations agree."""

    @staticmethod
    def _both(monkeypatch, compute):
        out = []
        for limit in (0, float("inf")):
            monkeypatch.setattr(algebra, "_ROOT_LIMIT", limit)
            out.append(compute())
        return out

    @pytest.mark.parametrize("p, k", FIELDS)
    def test_routes_agree(self, p, k, monkeypatch):
        fld = ResidueField.of_degree(p, k)
        rng = random.Random(29 * p + k)
        quads = _irreducible_quadratics(fld)
        polys = [_random_monic(fld, rng, d) for d in (2, 3, 4, 5, 6) for _ in range(12)]
        polys += [fld.poly_mul(a, b) for a, b in zip(quads, quads[1:] + quads[:1])][:6]
        polys += [fld.poly_mul(fld.poly_mul(a, a), (rng.randrange(fld.q), 1)) for a in quads[:4]]
        general, by_roots = self._both(monkeypatch, lambda: [fld.factor_monic(f) for f in polys])
        assert general == by_roots

    def test_boundary_fields(self, monkeypatch):
        """Degrees 2 and 3 over the largest field the root route takes and the
        smallest it leaves: both routes agree, the factors multiply back to f
        and a factor of degree 2 or 3 has no root, so it is irreducible."""
        below, above = _boundary_fields()
        assert below.q <= algebra._ROOT_LIMIT < above.q
        for fld in (below, above):
            rng = random.Random(fld.q)
            polys = [_random_monic(fld, rng, d) for d in (2, 3) for _ in range(25)]
            lin = [(rng.randrange(fld.q), 1) for _ in range(3)]
            polys += [fld.poly_mul(lin[0], lin[0]), fld.poly_mul(fld.poly_mul(lin[1], lin[1]), lin[1]),
                      fld.poly_mul(fld.poly_mul(lin[1], lin[1]), lin[2])]
            want = [fld.factor_monic(f) for f in polys]
            general, by_roots = self._both(monkeypatch, lambda: [fld.factor_monic(f) for f in polys])
            assert general == by_roots == want
            for f, facs in zip(polys, want):
                prod = (1,)
                for g, m in facs:
                    assert g[-1] == 1
                    assert len(g) == 2 or all(fld.poly_eval(g, a) for a in fld.elements())
                    for _ in range(m):
                        prod = fld.poly_mul(prod, g)
                assert prod == f

    def test_large_fields_never_enumerate(self, monkeypatch):
        """Above the limit no element is enumerated, so a field of about 10^9
        elements factors in time polynomial in log q."""
        seen = []
        real = ResidueField.roots

        def roots(self, f):
            seen.append(self.q)
            assert self.q <= algebra._ENUM_LIMIT, "enumerating a large field"
            return real(self, f)

        monkeypatch.setattr(ResidueField, "roots", roots)
        big = ResidueField(1_000_000_007)
        # y^2 + 1 is irreducible: -1 is no square mod 1,000,000,007 = 3 mod 4
        f = big.poly_mul(big.poly_mul((3, 1), (3, 1)), (1, 0, 1))
        assert big.factor_monic(f) == [((3, 1), 2), ((1, 0, 1), 1)]
        _, above = _boundary_fields()
        above.factor_monic(above.poly_mul((1, 1), (2, 1)))
        assert seen == []
        small = ResidueField(5)
        small.factor_monic((1, 0, 1))
        assert seen == [5]

    def test_only_the_general_path_seeds_a_generator(self, monkeypatch):
        made = []
        real = random.Random
        monkeypatch.setattr(algebra.random, "Random", lambda *a: (made.append(a), real(*a))[1])
        f2 = ResidueField(2)
        f2.factor_monic((0, 1, 1, 1))           # y (y^2 + y + 1): a root, then a quadratic
        f2.factor_monic((1, 1, 0, 1))           # irreducible cubic
        assert made == []
        f2.factor_monic((1, 0, 1, 0, 1))        # (y^2 + y + 1)^2: root-free of degree 4
        assert made == [(0,)]
