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
from functools import cached_property
from itertools import zip_longest
from math import gcd, isqrt, lcm

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

    @cached_property
    def residue_field(self) -> "ResidueField":
        """F_p, built once per context."""
        return ResidueField(self.p)


def _intval(p: int, n: int):
    """v_p(n) for an int n, INF for 0.  Divides out p^(2^j) for growing j,
    then for shrinking j, so a value v costs O(log v) divisions, each one
    divmod; v_2 is the index of the lowest set bit."""
    if n == 0:
        return INF
    if n % p:
        return 0
    if p == 2:
        return (n & -n).bit_length() - 1
    v, q, e = 0, p, 1
    while True:
        m, r = divmod(n, q)
        if r:
            break
        n = m
        v += e
        if n % p:
            return v
        q, e = q * q, 2 * e
    # p still divides n, to a power below e: take its binary digits
    while e > 1:
        q, e = isqrt(q), e // 2
        m, r = divmod(n, q)
        if not r:
            n = m
            v += e
    return v


def pval(ctx: ValuedFieldCtx, a):
    """p-adic valuation of a rational; pval(0) = INF."""
    a = _as_fraction(a)
    if a == 0:
        return INF
    return _intval(ctx.p, a.numerator) - _intval(ctx.p, a.denominator)


# ---------------------------------------------------------------------------
# Polynomials over Q: integer numerators over one denominator
# ---------------------------------------------------------------------------

_new = object.__new__
_set = object.__setattr__


def _iconv(a, b) -> list:
    """Product of two integer coefficient lists."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _ieval(nums, x: int) -> int:
    """The int polynomial with numerator list nums at the int x, by Horner."""
    acc = 0
    for c in reversed(nums):
        acc = acc * x + c
    return acc


def _idivmod(f: list, dn) -> list:
    """Divide the int list f in place by the int list dn, whose leading
    entry divides every quotient digit exactly (it is 1 for a monic
    divisor): returns the quotient and leaves the remainder in f."""
    dq = len(dn) - 1
    lead, low = dn[-1], dn[:-1]
    quot = [0] * (len(f) - dq)
    for k in range(len(f) - 1, dq - 1, -1):
        c = f[k]
        if c:
            if lead != 1:
                c //= lead
            quot[k - dq] = c
            for j, b in enumerate(low, k - dq):
                f[j] -= c * b
    del f[dq:]
    return quot


class _QPoly:
    """An exact polynomial over Q as integer numerators over one common
    denominator, as FLINT's fmpq_poly stores it.

    `nums` holds the integer numerators in the subclass's container (a
    little-endian tuple without trailing zeros for UniPoly, a dict
    monomial -> nonzero int for XPoly) and `den` is a positive int with
    gcd(content, den) = 1.  The representation is canonical, so equality
    compares (nums, den), den is the lcm of the reduced coefficient
    denominators, and arithmetic runs on ints.  A constant polynomial
    equals its scalar (an int or Fraction) and hashes like it.  Instances are
    immutable; `_raw` builds one from canonical data and each subclass's
    `_make` normalizes int numerators over a positive den.
    """

    __slots__ = ("nums", "den")

    @classmethod
    def _raw(cls, nums, den: int):
        out = _new(cls)
        _set(out, "nums", nums)
        _set(out, "den", den)
        return out

    def __setattr__(self, *a):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @property
    def is_zero(self) -> bool:
        return not self.nums

    @property
    def is_integral(self) -> bool:
        return self.den == 1

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self._coerce(other)
        return type(other) is type(self) and self.den == other.den \
            and self.nums == other.nums

    def __radd__(self, other):
        return self + other

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __rmul__(self, other):
        return self * other

    def __truediv__(self, scalar):
        scalar = _as_fraction(scalar)
        if not scalar:
            raise ZeroDivisionError(f"{type(self).__name__} division by zero")
        return self * Fraction(scalar.denominator, scalar.numerator)

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        out = None
        base = self
        while n:
            if n & 1:
                out = base if out is None else out * base
            n >>= 1
            if n:
                base = base * base
        return self._coerce(1) if out is None else out


class UniPoly(_QPoly):
    """Dense univariate polynomial over Q, in the _QPoly layout with `nums`
    a little-endian tuple.  `coeffs` is the read-only view as Fractions."""

    __slots__ = ()

    def __init__(self, coeffs=()):
        cs = [c if type(c) is int else _as_fraction(c) for c in coeffs]
        # lowest-terms coefficients over the lcm of their denominators have
        # content coprime to it
        den = lcm(*(c.denominator for c in cs))
        nums = [c.numerator * (den // c.denominator) for c in cs]
        while nums and nums[-1] == 0:
            nums.pop()
        _set(self, "nums", tuple(nums))
        _set(self, "den", den)

    @classmethod
    def _make(cls, nums: list, den: int) -> "UniPoly":
        """A UniPoly from a list of int numerators over a positive den: drops
        trailing zeros (in place) and divides out gcd(content, den)."""
        while nums and not nums[-1]:
            nums.pop()
        if den != 1:
            g = gcd(den, *nums)
            if g != 1:
                return cls._raw(tuple(c // g for c in nums), den // g)
        return cls._raw(tuple(nums), den)

    @classmethod
    def x(cls) -> "UniPoly":
        return cls._raw((0, 1), 1)

    @property
    def coeffs(self) -> tuple:
        """Read-only view: the coefficients as Fractions, little-endian."""
        return tuple(Fraction(c, self.den) for c in self.nums)

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.nums) - 1

    @property
    def is_monic(self) -> bool:
        return bool(self.nums) and self.nums[-1] == self.den

    def coeff(self, j: int) -> Fraction:
        if 0 <= j < len(self.nums):
            return Fraction(self.nums[j], self.den)
        return Fraction(0)

    def __hash__(self):
        if len(self.nums) < 2:
            return hash(Fraction(self.nums[0] if self.nums else 0, self.den))
        return hash((self.nums, self.den))

    def __add__(self, other):
        other = self._coerce(other)
        den = lcm(self.den, other.den)
        sa, sb = den // self.den, den // other.den
        a = [c * sa for c in self.nums]
        b = [c * sb for c in other.nums]
        if len(a) < len(b):
            a, b = b, a
        for j, c in enumerate(b):
            a[j] += c
        return UniPoly._make(a, den)

    def __neg__(self):
        return UniPoly._raw(tuple(-c for c in self.nums), self.den)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            n = other.numerator
            return UniPoly._make([c * n for c in self.nums], self.den * other.denominator)
        other = self._coerce(other)
        return UniPoly._make(_iconv(self.nums, other.nums), self.den * other.den)

    def __divmod__(self, other):
        """Exact division with remainder; divisor must be nonzero.

        Fraction-free pseudo-division: with L the divisor's leading
        numerator and e = deg self - deg other + 1, L^e * self.nums =
        q * other.nums + r over the integers, and each quotient digit
        divides exactly by L.  A monic integral divisor has L = 1, which is
        plain synthetic division."""
        other = self._coerce(other)
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        e = self.degree - other.degree + 1
        if e < 1:
            return UniPoly._raw((), 1), self
        s = other.nums[-1] ** e
        rem = [c * s for c in self.nums] if s != 1 else list(self.nums)
        quot = _idivmod(rem, other.nums)
        w = self.den * s
        if w < 0:
            w, quot, rem = -w, [-c for c in quot], [-c for c in rem]
        return UniPoly._make([c * other.den for c in quot], w), UniPoly._make(rem, w)

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __call__(self, v):
        """Evaluate at an exact rational (or integer) point."""
        a, b = v.numerator, v.denominator
        acc, bn = 0, 1
        for c in reversed(self.nums):
            acc = acc * a + c * bn
            bn *= b
        return Fraction(acc * b, self.den * bn)

    def derivative(self) -> "UniPoly":
        return UniPoly._make([j * c for j, c in enumerate(self.nums)][1:], self.den)

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


def qexpand(nums, qn, scale=1) -> list:
    """The q-expansion of the int list nums, for q monic integral with
    numerators qn: the int lists d_j, without trailing zeros (an empty list
    is a zero digit), with nums = sum d_j q^j and deg d_j < deg q.  Digit j
    comes multiplied by the int scale^j: for q = a * qt and f = nums / den,
    digit j over den is digit j of f's qt-expansion.  Every key and g is
    monic integral; a divisor that is not (or is constant) raises
    `MalformedDivisor`, as the numerators of a monic q with den > 1 lead
    with that den.  `_iexpand` is the unscaled core.
    """
    if len(qn) < 2 or qn[-1] != 1:
        raise MalformedDivisor(
            f"expansion divisor must be monic integral nonconstant, got numerators {list(qn)}")
    return _scaled(_iexpand(nums, qn), scale)


def _scaled(digits, scale) -> list:
    """The int digits of an expansion, digit j times the int scale^j: new
    lists where the scale changes them (digits itself is left as it is)."""
    if scale == 1:
        return digits
    out, s = [digits[0]] if digits else [], 1
    for d in digits[1:]:
        s *= scale
        out.append([c * s for c in d])
    return out


def _taylor(nums, t) -> list:
    """The Taylor coefficients at t of the int list nums, as a flat int
    list: one in-place Horner shift."""
    nums = list(nums)
    n = len(nums)
    if t:
        for i in range(n - 1):
            acc = nums[-1]
            for j in range(n - 2, i - 1, -1):
                acc = nums[j] = nums[j] + t * acc
    return nums


def _iexpand(nums, qn) -> list:
    """The digits of the q-expansion of the int list nums, for q monic
    integral with numerators qn: int lists without trailing zeros (an empty
    list is a zero digit), one pass of synthetic divisions.  At a linear
    key x + c the digits are the Taylor coefficients of nums at -c
    (`_taylor`)."""
    if len(qn) == 2:
        return [[c] if c else [] for c in _taylor(nums, -qn[0])]
    nums = list(nums)
    out = []
    while nums:
        quot = _idivmod(nums, qn)
        while nums and not nums[-1]:
            nums.pop()
        out.append(nums)
        nums = quot
    return out


# ---------------------------------------------------------------------------
# Resultants, by subresultant pseudo-remainders
# ---------------------------------------------------------------------------

def _iresultant(a, b) -> int:
    """Res(a, b) of two nonconstant int lists by the subresultant PRS
    (Cohen, *A Course in Computational Algebraic Number Theory*,
    Alg. 3.3.7): contents out, then pseudo-remainders divided by g h^delta,
    where every division is exact."""
    ca, cb = gcd(*a), gcd(*b)
    t = ca ** (len(b) - 1) * cb ** (len(a) - 1)
    a, b = [c // ca for c in a], [c // cb for c in b]
    s = 1
    if len(a) < len(b):
        a, b = b, a
        if (len(a) - 1) * (len(b) - 1) % 2:
            s = -1
    g = h = 1
    while len(b) > 1:
        da, db = len(a) - 1, len(b) - 1
        delta = da - db
        if da * db % 2:
            s = -s
        lb = b[-1] ** (delta + 1)
        r = [c * lb for c in a]
        _idivmod(r, b)
        while r and not r[-1]:
            r.pop()
        if not r:
            return 0
        w = g * h ** delta
        a, b = b, [c // w for c in r]
        g = a[-1]
        h = h * g ** delta // h ** delta
    da = len(a) - 1
    return s * t * (b[0] ** da // h ** (da - 1))


def resultant(f: UniPoly, g: UniPoly) -> Fraction:
    """Res_x(f, g): the subresultant PRS on the numerators (`_iresultant`)
    over den(f)^deg g * den(g)^deg f."""
    if f.is_zero or g.is_zero:
        raise UndefinedResultant("resultant of the zero polynomial")
    n, m = f.degree, g.degree
    if n == 0:
        return f.coeff(0) ** m
    if m == 0:
        return g.coeff(0) ** n
    return Fraction(_iresultant(f.nums, g.nums), f.den ** m * g.den ** n)


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
    the unique root congruent to the seed.  Lifting is Newton's iteration:
    with d = v(g'(x)), root == x mod p**k and k > d, the step
    x' = x - (g(x)/p**d) u**-1 with u = g'(x)/p**d a unit gives
    root == x' mod p**(2k - d), since v(g(x)/p**d) >= k (so u**-1 mod
    p**(k - d) suffices) and the Taylor terms of order >= 2 have value
    >= 2k.  g and g' are evaluated once per iterate, and one exact test on
    the last iterate's g(x), v(g(x)) >= k + d, certifies the result.
    """
    if not g.is_integral or g.is_zero:
        raise MalformedInput("hensel_root needs a nonzero integral polynomial")
    p = ctx.p
    s = seed.value % (p ** seed.precision)
    gn, dn = g.nums, g.derivative().nums
    gx, dx = _ieval(gn, s), _ieval(dn, s)
    vg, d = _intval(p, gx), _intval(p, dx)
    if d is INF:
        raise NoConvergence("derivative vanishes at seed")
    if not (vg is INF or vg > 2 * d):
        raise NoConvergence(
            f"seed not Hensel-liftable: v(g(s))={vg} <= 2*v(g'(s))={2 * d}")
    k, x = vg + -d, s  # root == x mod p**k; k is INF at an exact root
    while k < n_digits:
        step = gx // p ** d * pow(dx // p ** d, -1, p ** (k - d))
        k = 2 * k - d
        x = (x - step) % p ** k
        gx = _ieval(gn, x)
        if k < n_digits:
            dx = _ieval(dn, x)
    if _intval(p, gx) < k + d:
        raise NoConvergence("Newton lift failed its certificate v(g(x)) >= k + v(g'(x))")
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


def nu_oracle(ctx: ValuedFieldCtx, g: UniPoly, branch: BranchDescriptor, h: UniPoly,
              root_cache: dict | None = None) -> OracleValue:
    """v(h(eta)) for the branch, by a certified method.

    Resultant method: v_p(Res(g, h)) / deg g, valid only when the extension
    of v to L is unique.  Hensel method: v_p(h(r)) at a root approximation r
    of certified precision.  Returns INF exactly when h(eta) = 0: when g
    divides h, or, for a reducible g, when h vanishes at the branch root.

    root_cache, when given, keeps the branch's deepest Hensel root
    approximation across calls; it never changes a result.
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
    return f / f.coeff(f.degree)


def _nu_hensel(ctx: ValuedFieldCtx, g: UniPoly, seed: ResidueClass, h: UniPoly,
               cache: dict):
    # eta == r mod p^n and h's numerators are integers, so v(h(r)) < n is
    # v(h(eta)); the bound is built only when the root does not certify
    margin, bound = 2, None
    root = cache.get("hensel_root", seed)
    n = max(root.precision, seed.precision + 2, 8)
    while True:
        if root.precision < n:
            root = hensel_root(ctx, g, root, n)
        cache["hensel_root"] = root
        val = _intval(ctx.p, _ieval(h.nums, root.value))
        if val is not INF and val < n - margin:
            return val - _intval(ctx.p, h.den)
        if bound is None:
            # v(H(eta)) <= v_p(Res(g, H)), H = h's numerators, as the other
            # conjugates add nonnegative valuation.  If a reducible g shares
            # common = gcd(g, H) with H, eta is a root of g / common unless
            # H(eta) = 0; at the cap a finite value of g / common at eta
            # proves that
            hh, common = UniPoly._raw(h.nums, 1), None
            bound = pval(ctx, resultant(g, hh))
            if bound is INF:
                common = _monic_gcd(g, hh)
                bound = pval(ctx, resultant(g // common, hh))
                if bound is INF:
                    raise OracleUnavailable("resultant bound degenerate: g and h share a factor")
        if n > int(bound) + margin + 8:
            if common is not None and is_finite(_nu_hensel(ctx, g, seed, g // common, cache)):
                return INF
            raise OracleUnavailable("valuation exceeds its certified bound")
        n = 2 * n


# ---------------------------------------------------------------------------
# Small finite fields F_{p^k}, flat over F_p
# ---------------------------------------------------------------------------

# Fields of more elements than this find roots and test irreducibility by
# factoring rather than by enumerating elements or divisors: the measured
# crossover of the two routes' `extend_by` times (see CHANGES.md)
_ENUM_LIMIT = 4096


def _digits(n: int, p: int, k: int) -> tuple:
    """The k base-p digits of n, least significant first."""
    out = []
    for _ in range(k):
        n, c = divmod(n, p)
        out.append(c)
    return tuple(out)


class ResidueField:
    """F_{p^k} = F_p[t]/(h) with h the canonical irreducible of degree k.

    An element is an int in range(p^k): sum c_i p^i stands for
    c_0 + c_1 t + ... + c_{k-1} t^(k-1), each c_i in range(p), and `coords`
    returns (c_0, ..., c_{k-1}).  So F_p is range(p) with arithmetic mod p,
    F_p sits in every F_{p^k} as range(p), and the canonical element order
    is int order.  Deterministic: defining polynomials are the
    lexicographically smallest irreducibles, scanning coefficients in
    {0, ..., p-1}.
    """

    zero = 0
    one = 1

    def __init__(self, p: int):
        """F_p itself, with modulus t; `of_degree` builds F_{p^k}."""
        self._set_modulus(p, (0, 1))

    def _set_modulus(self, p: int, modulus):
        self.p = p
        self.modulus = modulus
        self.k = len(modulus) - 1
        self.q = p ** self.k

    # -- construction -----------------------------------------------------

    @classmethod
    def of_degree(cls, p: int, k: int) -> "ResidueField":
        """The canonical field of degree k: lexicographically smallest
        monic irreducible modulus."""
        if k == 1:
            return cls(p)
        base = cls(p)
        for n in range(p ** k):
            cand = _digits(n, p, k) + (1,)
            if base._poly_irreducible(cand):
                out = cls.__new__(cls)
                out._set_modulus(p, cand)
                return out
        raise MalformedInput("no irreducible found")  # unreachable

    # -- element arithmetic ------------------------------------------------

    @property
    def gen(self):
        return self.p if self.k > 1 else 1

    def coords(self, a) -> tuple:
        """The k coefficients (c_0, ..., c_{k-1}) of a over F_p."""
        return _digits(a, self.p, self.k)

    def _from_coords(self, cs) -> int:
        n = 0
        for c in reversed(cs):
            n = n * self.p + c
        return n

    def from_int(self, n: int):
        return n % self.p

    def is_zero(self, a) -> bool:
        return not a

    def add(self, a, b):
        if self.k == 1:
            return (a + b) % self.p
        return self._digitwise(a, b, 1)

    def neg(self, a):
        if self.k == 1:
            return -a % self.p
        return self._digitwise(0, a, -1)

    def sub(self, a, b):
        if self.k == 1:
            return (a - b) % self.p
        return self._digitwise(a, b, -1)

    def _digitwise(self, a, b, s):
        """The element whose digits are (x + s * y) % p, x and y the digits
        of a and b: a + s * b, which needs no reduction by the modulus."""
        if not b:
            return a
        p = self.p
        out, w = 0, 1
        while a or b:
            a, x = divmod(a, p)
            b, y = divmod(b, p)
            out += (x + s * y) % p * w
            w *= p
        return out

    def mul(self, a, b):
        p, k = self.p, self.k
        if k == 1:
            return a * b % p
        if a < 2 or b < 2:
            return a * b  # a factor is 0 or 1
        # schoolbook product of the digit vectors, reduced by the modulus
        # from the top; entries are taken mod p only where they are read
        prod = [0] * (2 * k - 1)
        ys = self.coords(b)
        for i, x in enumerate(self.coords(a)):
            if x:
                for j, y in enumerate(ys, i):
                    prod[j] += x * y
        low = self.modulus[:k]
        for i in range(2 * k - 2, k - 1, -1):
            c = prod[i] % p
            if c:
                for j, m in enumerate(low, i - k):
                    prod[j] -= c * m
        return self._from_coords([c % p for c in prod[:k]])

    def pow(self, a, n: int):
        if self.k == 1:
            return pow(a, n, self.p)
        out = self.one
        while n:
            if n & 1:
                out = self.mul(out, a)
            a = self.mul(a, a)
            n >>= 1
        return out

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("inverse of zero in residue field")
        # a^(q-1) = 1 in the multiplicative group of F_q
        return self.pow(a, self.q - 2)

    def elements(self):
        """All elements in canonical (int) order."""
        return iter(range(self.q))

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
        while cs and not cs[-1]:
            cs.pop()
        return tuple(cs)

    def poly_add(self, f, g):
        return self.poly_norm([self.add(a, b) for a, b in zip_longest(f, g, fillvalue=0)])

    def poly_sub(self, f, g):
        return self.poly_add(f, [self.neg(c) for c in g])

    def poly_mul(self, f, g):
        if not f or not g:
            return ()
        out = [0] * (len(f) + len(g) - 1)
        for i, a in enumerate(f):
            if not a:
                continue
            for j, b in enumerate(g):
                out[i + j] = self.add(out[i + j], self.mul(a, b))
        return self.poly_norm(out)

    def poly_mulmod(self, f, g, m):
        return self.poly_divmod(self.poly_mul(f, g), m)[1]

    def poly_powmod(self, f, n: int, m):
        out, f = (1,), self.poly_divmod(f, m)[1]
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
        lcinv = None if g[-1] == 1 else self.inv(g[-1])
        quot = [0] * (len(f) - dg)
        for k in range(len(f) - 1, dg - 1, -1):
            c = f[k]
            if not c:
                continue
            q = c if lcinv is None else self.mul(c, lcinv)
            quot[k - dg] = q
            for j in range(dg + 1):
                f[k - dg + j] = self.sub(f[k - dg + j], self.mul(q, g[j]))
        return self.poly_norm(quot), self.poly_norm(f)

    def poly_eval(self, f, a):
        acc = 0
        if self.k == 1:
            for c in reversed(f):
                acc = (acc * a + c) % self.p
            return acc
        for c in reversed(f):
            acc = self.add(self.mul(acc, a), c)
        return acc

    def roots(self, f):
        """The roots of f in canonical (int) order, by evaluating f at every
        element."""
        return (a for a in self.elements() if not self.poly_eval(f, a))

    def poly_monic(self, f):
        if not f:
            return ()
        lcinv = self.inv(f[-1])
        return tuple(self.mul(c, lcinv) for c in f)

    def monic_polys(self, degree: int):
        """Monic polynomials of the given degree in canonical order: c_0
        slowest, each coefficient counted as in elements()."""
        for n in range(self.q ** degree):
            yield _digits(n, self.q, degree)[::-1] + (1,)

    def _poly_irreducible(self, cs) -> bool:
        f = self.poly_norm(cs)
        d = len(f) - 1
        if d < 1:
            return False
        if d == 1:
            return True
        if self.q > _ENUM_LIMIT:
            fac = self.factor_monic(f)
            return len(fac) == 1 and len(fac[0][0]) == len(f)  # one factor, multiplicity 1
        for e in range(1, d // 2 + 1):
            for g in self.monic_polys(e):
                if not self.poly_divmod(f, g)[1]:
                    return False
        return True

    def factor_monic(self, f):
        """Distinct monic irreducible factors of f with multiplicities, in
        canonical order: by degree, then c_0, c_1, ... compared in turn as
        ints.

        Squarefree decomposition, distinct-degree factorization and
        Cantor-Zassenhaus equal-degree splitting (von zur Gathen and Gerhard,
        Modern Computer Algebra, ch. 14), with splitting polynomials drawn
        from a generator seeded inside the call, then sorted.  No element is
        enumerated, so the cost is polynomial in log q."""
        f = self.poly_monic(self.poly_norm(f))
        if len(f) < 3:
            return [(f, 1)] if len(f) == 2 else []
        rng = random.Random(0)
        out = [(fac, mult)
               for part, mult in self._squarefree(f)
               for d, same in self._distinct_degree(part)
               for fac in self._equal_degree(same, d, rng)]
        return sorted(out, key=lambda fm: (len(fm[0]), fm[0]))

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
        return self.poly_norm([self.mul(j % self.p, a) for j, a in enumerate(f) if j])

    def _distinct_degree(self, f):
        """(d, product of the degree-d irreducible factors) of the monic
        squarefree f, from gcd(f, t^(q^d) - t)."""
        x = (0, 1)
        out, h, d = [], x, 0
        while len(f) - 1 >= 2 * (d + 1):
            d += 1
            h = self.poly_powmod(h, self.q, f)
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
            a = self.poly_norm([rng.randrange(self.q) for _ in range(len(f) - 1)])
            if self.p == 2:
                b = t = a
                for _ in range(self.k * d - 1):
                    t = self.poly_mulmod(t, t, f)
                    b = self.poly_add(b, t)
            else:
                e = (self.q ** d - 1) // 2
                b = self.poly_sub(self.poly_powmod(a, e, f), (1,))
            g = self.poly_gcd(f, b)
            if 1 < len(g) < len(f):
                return (self._equal_degree(g, d, rng)
                        + self._equal_degree(self.poly_divmod(f, g)[0], d, rng))

    def extend_by(self, phi):
        """Extension by an irreducible phi over this field.

        Returns (big, gen_image, root): the canonical flat field of degree
        k*deg(phi), the image of this field's generator inside it, and the
        canonical (first in element order) root of phi there.
        """
        d = len(phi) - 1
        big = ResidueField.of_degree(self.p, self.k * d)
        gen_image = _embed_generator(self, big)
        lifted = tuple(_embedded(self, big, gen_image, c) for c in phi)
        root = _first_root(big, lifted)
        if root is None:
            raise AssertionError("irreducible factor has no root in its splitting degree")
        return big, gen_image, root


def _embed_generator(small: ResidueField, big: ResidueField):
    """Image of small's generator in big: the canonical root of small's
    modulus, whose F_p coefficients are elements of big as they stand."""
    if small.k == 1:
        return big.one
    root = _first_root(big, small.modulus)
    if root is None:
        raise AssertionError("no embedding root found")
    return root


def _first_root(field: ResidueField, poly):
    """The smallest root of poly in field, or None."""
    if field.q > _ENUM_LIMIT:
        return min((field.neg(fac[0]) for fac, _ in field.factor_monic(poly)
                    if len(fac) == 2), default=None)
    return next(field.roots(poly), None)


def _embedded(small: ResidueField, big: ResidueField, gen_image, elt):
    """Map an element of the subfield small into big, small's generator to
    gen_image."""
    return big.poly_eval(small.coords(elt), gen_image)
