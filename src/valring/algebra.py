"""Exact base arithmetic over (Q, v_p): rationals with p-adic valuation,
univariate polynomials, q-expansions, resultants, Hensel lifting and small
finite fields.

Everything is exact; no floats anywhere.  Values live in Q union {INF},
where INF is the valuation of zero.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest
from math import lcm

from .errors import (
    MalformedDivisor,
    MalformedInput,
    NoConvergence,
    OracleUnavailable,
    UndefinedResultant,
)


# ---------------------------------------------------------------------------
# Values: Q union {INF}
# ---------------------------------------------------------------------------

class _Infinity:
    """The value of 0; absorbs addition and tops every rational."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __add__(self, other):
        return self

    __radd__ = __add__

    def __neg__(self):
        raise ArithmeticError("cannot negate infinity")

    def __eq__(self, other):
        return other is self

    def __hash__(self):
        return hash("valring-inf")

    def __lt__(self, other):
        return False

    def __le__(self, other):
        return other is self

    def __gt__(self, other):
        return other is not self

    def __ge__(self, other):
        return True

    def __repr__(self):
        return "inf"


INF = _Infinity()


def is_finite(v) -> bool:
    return v is not INF


def _as_fraction(a) -> Fraction:
    if isinstance(a, Fraction):
        return a
    if isinstance(a, int):
        return Fraction(a)
    if isinstance(a, str):
        return Fraction(a)
    raise MalformedInput(f"not an exact rational: {a!r}")


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# Miller-Rabin with the bases above is proven correct below this bound, which
# is itself a strong pseudoprime to all of them (Sorenson and Webster, 2015)
P_BOUND = 3_317_044_064_679_887_385_961_981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test for n < P_BOUND."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class ValuedFieldCtx:
    """The base valued field (Q, v_p) with the normalization v(p) = 1."""

    p: int

    def __post_init__(self):
        if isinstance(self.p, int) and self.p >= P_BOUND:
            raise MalformedInput(f"p must be below {P_BOUND}, the bound of the "
                                 f"deterministic primality test, got {self.p!r}")
        if not isinstance(self.p, int) or not _is_prime(self.p):
            raise MalformedInput(f"p must be prime, got {self.p!r}")


def _intval(p: int, n: int):
    if n == 0:
        return INF
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def pval(ctx: ValuedFieldCtx, a):
    """p-adic valuation of a rational; pval(0) = INF."""
    a = _as_fraction(a)
    if a == 0:
        return INF
    return _intval(ctx.p, a.numerator) - _intval(ctx.p, a.denominator)


# ---------------------------------------------------------------------------
# Univariate polynomials over Q, little-endian coefficients
# ---------------------------------------------------------------------------

class UniPoly:
    """Dense univariate polynomial over Q.

    Coefficients are little-endian with no trailing zeros stored; the zero
    polynomial has an empty coefficient tuple.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [_as_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, *a):
        raise AttributeError("UniPoly is immutable")

    @classmethod
    def x(cls) -> "UniPoly":
        return cls((0, 1))

    @classmethod
    def constant(cls, c) -> "UniPoly":
        return cls((c,))

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    @property
    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self.coeffs)

    def coeff(self, j: int) -> Fraction:
        if 0 <= j < len(self.coeffs):
            return self.coeffs[j]
        return Fraction(0)

    def __eq__(self, other):
        return isinstance(other, UniPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        other = self._coerce(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return UniPoly(tuple(self.coeff(j) + other.coeff(j) for j in range(n)))

    __radd__ = __add__

    def __neg__(self):
        return UniPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return UniPoly(tuple(c * other for c in self.coeffs))
        other = self._coerce(other)
        if self.is_zero or other.is_zero:
            return UniPoly()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return UniPoly(out)

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        scalar = _as_fraction(scalar)
        return UniPoly(tuple(c / scalar for c in self.coeffs))

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        out = UniPoly((1,))
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __divmod__(self, other):
        """Exact division with remainder; divisor must be nonzero."""
        other = self._coerce(other)
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = other.degree
        lc = other.coeffs[-1]
        if len(rem) - 1 < dq:
            return UniPoly(), self
        quot = [Fraction(0)] * (len(rem) - dq)
        for k in range(len(rem) - 1, dq - 1, -1):
            c = rem[k]
            if c == 0:
                continue
            q = c / lc
            quot[k - dq] = q
            for j, b in enumerate(other.coeffs):
                rem[k - dq + j] -= q * b
        return UniPoly(quot), UniPoly(rem)

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __call__(self, v):
        """Evaluate at an exact rational (or integer) point."""
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * v + c
        return acc

    def derivative(self) -> "UniPoly":
        return UniPoly(tuple(j * c for j, c in enumerate(self.coeffs) if j >= 1))

    def denominator_lcm(self) -> int:
        return lcm(*(c.denominator for c in self.coeffs))

    @staticmethod
    def _coerce(other) -> "UniPoly":
        if isinstance(other, UniPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return UniPoly((other,))
        raise TypeError(f"cannot coerce {other!r} to UniPoly")

    def __repr__(self):
        if self.is_zero:
            return "0"
        parts = []
        for j in range(self.degree, -1, -1):
            c = self.coeff(j)
            if c == 0:
                continue
            if j == 0:
                parts.append(str(c))
            elif j == 1:
                parts.append(f"{c}*x" if c != 1 else "x")
            else:
                parts.append(f"{c}*x^{j}" if c != 1 else f"x^{j}")
        return " + ".join(parts).replace("+ -", "- ")


def qexpand(f: UniPoly, q: UniPoly):
    """The q-expansion of f: the unique (f_0, ..., f_n) with f = sum f_j q^j
    and deg f_j < deg q.  Requires q monic of degree >= 1.
    """
    if q.degree < 1 or not q.is_monic:
        raise MalformedDivisor(f"expansion divisor must be monic nonconstant, got {q!r}")
    return _qexpand_any(f, q)


def _qexpand_any(f: UniPoly, q: UniPoly):
    # same expansion, any invertible leading coefficient
    if q.degree < 1:
        raise MalformedDivisor("divisor must be nonconstant")
    out = []
    while not f.is_zero:
        f, r = divmod(f, q)
        out.append(r)
    return tuple(out)


# ---------------------------------------------------------------------------
# Resultants, fraction-free
# ---------------------------------------------------------------------------

def _bareiss_det(m) -> int:
    """Fraction-free determinant of an integer matrix."""
    n = len(m)
    m = [row[:] for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def resultant(f: UniPoly, g: UniPoly) -> Fraction:
    """Res_x(f, g), computed fraction-free from the Sylvester matrix."""
    if f.is_zero or g.is_zero:
        raise UndefinedResultant("resultant of the zero polynomial")
    n, m = f.degree, g.degree
    if n == 0:
        return f.coeffs[0] ** m
    if m == 0:
        return g.coeffs[0] ** n
    df, dg = f.denominator_lcm(), g.denominator_lcm()
    fi = [int(c * df) for c in f.coeffs]
    gi = [int(c * dg) for c in g.coeffs]
    size = n + m
    rows = []
    for i in range(m):
        row = [0] * size
        for j, c in enumerate(reversed(fi)):
            row[i + j] = c
        rows.append(row)
    for i in range(n):
        row = [0] * size
        for j, c in enumerate(reversed(gi)):
            row[i + j] = c
        rows.append(row)
    det = _bareiss_det(rows)
    return Fraction(det, df ** m * dg ** n)


# ---------------------------------------------------------------------------
# Hensel lifting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ResidueClass:
    """An approximate p-adic integer: value mod p**precision."""

    value: int
    precision: int


def hensel_root(ctx: ValuedFieldCtx, g: UniPoly, seed: ResidueClass, n_digits: int) -> ResidueClass:
    """Lift a simple-in-the-Hensel-sense root of g to precision p**n_digits.

    The seed must satisfy v(g(seed)) > 2 v(g'(seed)); the returned class is
    the unique root congruent to the seed.  Lifting is digit by digit, which
    keeps every valuation test exact: with d = v(g'(x)) and root == x mod
    p**k, k > d, the next digit t solves g(x)/p**(d+k) + t g'(x)/p**d == 0
    mod p, since the Taylor terms of order >= 2 have value >= 2k > d + k.
    """
    if not g.is_integral or g.is_zero:
        raise MalformedInput("hensel_root needs a nonzero integral polynomial")
    p = ctx.p
    s = seed.value % (p ** seed.precision)
    dg = g.derivative()
    gx = g(s)
    vg = pval(ctx, gx)
    vdg = pval(ctx, dg(s))
    if vdg is INF:
        raise NoConvergence("derivative vanishes at seed")
    if not (vg is INF or vg > 2 * vdg):
        raise NoConvergence(
            f"seed not Hensel-liftable: v(g(s))={vg} <= 2*v(g'(s))={2 * vdg}")
    if vg is INF:
        # the seed is an exact integer root
        r = s % (p ** n_digits)
        return ResidueClass(r, n_digits)
    d = vdg
    k = vg - d  # current agreement: root == x mod p**k
    x = s
    while k < n_digits:
        unit = int(dg(x)) // p ** d
        digit = -(int(gx) // p ** (d + k)) * pow(unit, -1, p) % p
        cand = x + digit * p ** k
        gx = g(cand)
        vc = pval(ctx, gx)
        if not (vc is INF or vc >= d + k + 1):
            raise NoConvergence("no digit continues the convergent branch")
        x = cand
        k += 1
    r = x % (p ** n_digits)
    if r % (p ** min(seed.precision, n_digits)) != s % (p ** min(seed.precision, n_digits)):
        raise NoConvergence("lift left the seed residue class")
    return ResidueClass(r, n_digits)


# ---------------------------------------------------------------------------
# The valuation oracle nu(h) = v(h(eta))
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BranchDescriptor:
    """Designates the chosen extension of v to L = Q[x]/(g).

    kind "unique": the extension is unique; the resultant method applies.
    kind "hensel": the branch root lies in the completion and is pinned by
    an approximating residue class used as a Hensel seed.
    """

    kind: str
    seed: ResidueClass | None = None


@dataclass(frozen=True)
class OracleValue:
    value: object  # Fraction/int or INF
    method: str

    def __eq__(self, other):
        if isinstance(other, OracleValue):
            return self.value == other.value and self.method == other.method
        return self.value == other

    def __hash__(self):
        return hash((self.value, self.method))


def nu_oracle(ctx: ValuedFieldCtx, g: UniPoly, branch: BranchDescriptor, h: UniPoly,
              root_cache: dict | None = None) -> OracleValue:
    """v(h(eta)) for the branch, by a certified method.

    Resultant method: v_p(Res(g, h)) / deg g, valid only when the extension
    of v to L is unique.  Hensel method: v_p(h(r)) at a root approximation r
    of certified precision.  Returns INF exactly when h(eta) = 0: when g
    divides h, or, for a reducible g, when h vanishes at the branch root.

    root_cache, when given, keeps the deepest Hensel root approximation of
    the branch under "hensel_root" across calls; it never changes a result.
    """
    if not g.is_monic or g.degree < 1:
        raise MalformedInput("g must be monic nonconstant")
    if h.is_zero:
        return OracleValue(INF, "divisibility")
    if h.degree >= g.degree:
        h = h % g
        if h.is_zero:
            return OracleValue(INF, "divisibility")
    if branch.kind == "unique":
        r = resultant(g, h)
        return OracleValue(Fraction(pval(ctx, r), g.degree), "resultant")
    if branch.kind == "hensel":
        cache = {} if root_cache is None else root_cache
        return OracleValue(_nu_hensel(ctx, g, branch.seed, h, cache), "hensel")
    raise OracleUnavailable(f"no certified method for branch {branch.kind!r}")


def _monic_gcd(f: UniPoly, g: UniPoly) -> UniPoly:
    """The monic gcd over Q, by Euclid's algorithm."""
    while not g.is_zero:
        f, g = g, f % g
    return f / f.coeffs[-1]


def _nu_hensel(ctx: ValuedFieldCtx, g: UniPoly, seed: ResidueClass, h: UniPoly,
               cache: dict):
    dh = h.denominator_lcm()
    hh = h * dh
    # certification bound: v(H(eta)) <= v_p(Res(g, H)) since the other
    # conjugates contribute nonnegative valuation
    bound = pval(ctx, resultant(g, hh))
    common = None
    if bound is INF:
        # g is reducible and shares a factor with h although h % g != 0; eta
        # is a root of g / gcd(g, h) unless h(eta) = 0, and then the value
        # never certifies below the precision cap, where a finite value of
        # g / gcd(g, h) at eta proves h(eta) = 0
        common = _monic_gcd(g, hh)
        bound = pval(ctx, resultant(g // common, hh))
        if bound is INF:
            raise OracleUnavailable("resultant bound degenerate: g and h share a factor")
    margin = 2
    cap = int(bound) + margin + 8
    root = cache.get("hensel_root")
    if root is None:
        root = hensel_root(ctx, g, seed, max(seed.precision + 2, 8))
    n = root.precision
    while True:
        if root.precision < n:
            root = hensel_root(ctx, g, root, n)
        cache["hensel_root"] = root
        val = pval(ctx, hh(root.value))
        if val is not INF and val < n - margin:
            return val - pval(ctx, Fraction(dh))
        if n > cap:
            if common is not None and is_finite(_nu_hensel(ctx, g, seed, g // common, cache)):
                return INF
            raise OracleUnavailable("valuation exceeds its certified bound")
        n = 2 * n


# ---------------------------------------------------------------------------
# Small finite fields F_{p^k}, flat over F_p
# ---------------------------------------------------------------------------

class ResidueField:
    """F_{p^k} = F_p[t]/(h) with h the canonical irreducible of degree k.

    Elements are int tuples of length k (coefficients of t-powers, each in
    range(p)).  Deterministic: defining polynomials are the
    lexicographically smallest irreducibles, scanning coefficients in
    {0, ..., p-1}.
    """

    def __init__(self, p: int, modulus=None):
        self.p = p
        if modulus is None:
            modulus = (0, 1)  # F_p itself: t
        self.modulus = tuple(int(c) % p for c in modulus)
        if self.modulus[-1] != 1:
            raise MalformedInput("modulus must be monic")
        self.k = len(self.modulus) - 1
        if self.k < 1:
            raise MalformedInput("modulus must be nonconstant")
        self._prime = self if self.k == 1 else ResidueField(p)
        if self.k > 1 and not self._prime._poly_irreducible(self.modulus):
            raise MalformedInput("modulus is reducible")

    # -- construction -----------------------------------------------------

    @classmethod
    def prime(cls, p: int) -> "ResidueField":
        return cls(p)

    @classmethod
    def of_degree(cls, p: int, k: int) -> "ResidueField":
        """The canonical field of degree k: lexicographically smallest
        monic irreducible modulus."""
        if k == 1:
            return cls(p)
        base = cls(p)
        for coeffs in _lex_tuples(p, k):
            cand = coeffs + (1,)
            if base._poly_irreducible(cand):
                return cls(p, cand)
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
        for t in _lex_tuples(self.p, self.k):
            yield t

    def __eq__(self, other):
        return (isinstance(other, ResidueField) and other.p == self.p
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
        """Monic polynomials of the given degree in canonical order."""
        for lower in _lex_tuples_elems(self, degree):
            yield lower + (self.one,)

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
        big = ResidueField.of_degree(self.p, self.k * d)
        gen_image = _embed_generator(self, big)
        lifted = tuple(_embedded(self, big, gen_image, c) for c in phi)
        root = _first_root(big, lifted)
        if root is None:
            raise AssertionError("irreducible factor has no root in its splitting degree")
        return big, gen_image, root


def _lex_tuples(p: int, k: int):
    """Int tuples of length k over range(p), counting with the first entry
    as the fastest digit."""
    for n in range(p ** k):
        digits = []
        m = n
        for _ in range(k):
            digits.append(m % p)
            m //= p
        yield tuple(digits)


def _lex_tuples_elems(field: ResidueField, length: int):
    if length == 0:
        yield ()
        return
    for rest in _lex_tuples_elems(field, length - 1):
        for e in field.elements():
            yield rest + (e,)


def _embed_generator(small: ResidueField, big: ResidueField):
    """Image of small's generator in big: the canonical root of small's
    modulus."""
    if small.k == 1:
        return big.one
    lifted = tuple(big.from_int(c) for c in small.modulus)
    root = _first_root(big, lifted)
    if root is None:
        raise AssertionError("no embedding root found")
    return root


def _first_root(field: ResidueField, poly):
    for a in field.elements():
        if field.is_zero(field.poly_eval(poly, a)):
            return a
    return None


def _embedded(small: ResidueField, big: ResidueField, gen_image, elt):
    """Map an element of small into big via the generator image."""
    acc = big.zero
    for c in reversed(elt):
        acc = big.add(big.mul(acc, gen_image), big.from_int(c))
    return acc
