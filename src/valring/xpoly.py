"""Sparse exact polynomials in the chain variables X_0, X_1, ...

A monomial is a tuple of (position, exponent) pairs sorted by position with
all exponents positive; the empty tuple is 1.

An XPoly has the `algebra._QPoly` layout with `nums` a dict monomial ->
nonzero int; `terms` is the read-only view monomial -> Fraction.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from types import MappingProxyType

from .algebra import UniPoly, _QPoly, _as_fraction, _iconv, _intval, _set

Monom = tuple


def monom(d: dict) -> Monom:
    return tuple(sorted((int(k), int(v)) for k, v in d.items() if v))


def monom_mul(a: Monom, b: Monom) -> Monom:
    """Product of two canonical monomials."""
    if not a:
        return b
    if not b:
        return a
    if a[-1][0] < b[0][0]:
        return a + b
    if b[-1][0] < a[0][0]:
        return b + a
    out = dict(a)
    for k, v in b:
        out[k] = out.get(k, 0) + v
    return tuple(sorted(out.items()))


def monom_degree_in(m: Monom, pos: int) -> int:
    for k, v in m:
        if k == pos:
            return v
    return 0


def _split(nums: dict, pos: int) -> dict:
    """{e: {monomial without X_pos: numerator}} over the X_pos-degrees e."""
    out = {}
    for m, c in nums.items():
        e = 0
        rest = m
        for idx, (k, v) in enumerate(m):
            if k == pos:
                e = v
                rest = m[:idx] + m[idx + 1:]
                break
        out.setdefault(e, {})[rest] = c
    return out


def _unsplit(parts, pos: int) -> dict:
    """{monomial: numerator} from (e, {monomial without X_pos: numerator},
    scale) triples: the inverse of `_split`, each part times X_pos^e and
    its scale."""
    out = {}
    for e, t, s in parts:
        x = ((pos, e),) if e else ()
        for m, c in t.items():
            out[monom_mul(m, x)] = c * s
    return out


def _mul_into(acc: dict, a: dict, b: dict, scale: int = 1) -> None:
    """acc += scale * a * b on numerator dicts."""
    for m1, c1 in a.items():
        c1 *= scale
        for m2, c2 in b.items():
            m = monom_mul(m1, m2)
            acc[m] = acc.get(m, 0) + c1 * c2


class XPoly(_QPoly):
    __slots__ = ()

    def __init__(self, terms=None):
        t = {}
        if terms:
            for m, c in (terms.items() if isinstance(terms, dict) else terms):
                c = _as_fraction(c)
                if c == 0:
                    continue
                m = monom(dict(m))
                t[m] = t.get(m, 0) + c
        # lowest-terms coefficients over the lcm of their denominators have
        # content coprime to it
        den = lcm(*(c.denominator for c in t.values()))
        _set(self, "nums", {m: c.numerator * (den // c.denominator) for m, c in t.items() if c})
        _set(self, "den", den)

    @classmethod
    def _make(cls, nums: dict, den: int) -> "XPoly":
        """An XPoly from canonical monomials with int numerators over a
        positive den: drops zeros and divides out gcd(content, den)."""
        nums = {m: c for m, c in nums.items() if c}
        if not nums:
            return cls._raw(nums, 1)
        if den != 1:
            g = gcd(den, *nums.values())
            if g != 1:
                den //= g
                nums = {m: c // g for m, c in nums.items()}
        return cls._raw(nums, den)

    @property
    def terms(self):
        """Read-only view monomial -> Fraction."""
        return MappingProxyType({m: Fraction(c, self.den) for m, c in self.nums.items()})

    # -- constructors -------------------------------------------------------

    @classmethod
    def var(cls, pos: int) -> "XPoly":
        return cls._raw({((pos, 1),): 1}, 1)

    @classmethod
    def const(cls, c) -> "XPoly":
        return cls({(): c})

    @classmethod
    def zero(cls) -> "XPoly":
        return cls._raw({}, 1)

    @classmethod
    def from_unipoly(cls, u: UniPoly, pos: int) -> "XPoly":
        return cls._raw({((pos, j),) if j else (): c for j, c in enumerate(u.nums) if c}, u.den)

    # -- basic queries -------------------------------------------------------

    def variables(self):
        return sorted({k for m in self.nums for k, _ in m})

    def degree_in(self, pos: int) -> int:
        return max((monom_degree_in(m, pos) for m in self.nums), default=0)

    # -- arithmetic ----------------------------------------------------------

    def __hash__(self):
        if self.nums.keys() <= {()}:
            return hash(Fraction(self.nums.get((), 0), self.den))
        return hash((frozenset(self.nums.items()), self.den))

    def __add__(self, other):
        other = self._coerce(other)
        den = lcm(self.den, other.den)
        sa, sb = den // self.den, den // other.den
        t = {m: c * sa for m, c in self.nums.items()}
        for m, c in other.nums.items():
            t[m] = t.get(m, 0) + c * sb
        return XPoly._make(t, den)

    def __neg__(self):
        return XPoly._raw({m: -c for m, c in self.nums.items()}, self.den)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            n = other.numerator
            return XPoly._make({m: c * n for m, c in self.nums.items()},
                               self.den * other.denominator)
        other = self._coerce(other)
        t = {}
        _mul_into(t, self.nums, other.nums)
        return XPoly._make(t, self.den * other.den)

    @staticmethod
    def _coerce(other) -> "XPoly":
        if isinstance(other, XPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return XPoly.const(other)
        raise TypeError(f"cannot coerce {other!r}")

    # -- evaluation ------------------------------------------------------------

    def eval_unipoly(self, images: dict, powers=None) -> UniPoly:
        """Substitute UniPoly images for every variable; exact result in Q[x].

        `powers`, when given, is a dict pos -> [images[pos]^v for v = 0, 1,
        ...] that is read and extended in place (see `extend_powers`), so
        callers evaluating against the same images share one table.  Each
        term's numerators multiply into its cached powers on int lists, and
        the terms sum into one list over the lcm of their denominators."""
        if powers is None:
            powers = {}
        terms = []
        for m, c in self.nums.items():
            nums, den = [c], 1
            for k, v in m:
                pk = powers.get(k)
                if pk is None:
                    pk = powers[k] = [UniPoly._raw((1,), 1), images[k]]
                pv = extend_powers(pk, v)[v]
                nums = _iconv(nums, pv.nums) if len(nums) > 1 else [nums[0] * x for x in pv.nums]
                den *= pv.den
            terms.append((nums, den))
        den = lcm(*(d for _, d in terms))
        acc = [0] * max((len(t) for t, _ in terms), default=0)
        for nums, d in terms:
            s = den // d
            for j, x in enumerate(nums):
                acc[j] += x * s
        return UniPoly._make(acc, den * self.den)

    def to_unipoly(self, pos: int) -> UniPoly:
        """View a polynomial supported on the single variable X_pos as a
        UniPoly in that variable."""
        nums = {}
        for m, c in self.nums.items():
            if m == ():
                nums[0] = c
            elif len(m) == 1 and m[0][0] == pos:
                nums[m[0][1]] = c
            else:
                raise ValueError(f"not supported on X_{pos}: {self!r}")
        return UniPoly._raw(tuple(nums.get(j, 0) for j in range(max(nums, default=-1) + 1)),
                            self.den)

    def __repr__(self):
        if self.is_zero:
            return "0"
        parts = []
        terms = self.terms
        for m in sorted(terms, key=_monom_key, reverse=True):
            c = terms[m]
            mono = "*".join(f"X{k}^{v}" if v > 1 else f"X{k}" for k, v in m)
            if not mono:
                parts.append(str(c))
            elif c == 1:
                parts.append(mono)
            elif c == -1:
                parts.append(f"-{mono}")
            else:
                parts.append(f"{c}*{mono}")
        return " + ".join(parts).replace("+ -", "- ")


def extend_powers(powers: list, n: int) -> list:
    """Extend a list [P^0, P^1, ...] in place to hold P^n; return it."""
    while len(powers) <= n:
        powers.append(powers[-1] * powers[1])
    return powers


def _monom_key(m: Monom):
    """Sort key of the canonical term order, which lists terms by
    descending key: the exponent at each position in turn."""
    if not m:
        return ()
    key = [0] * (m[-1][0] + 1)
    for k, v in m:
        if k >= 0:
            key[k] = v
    return tuple(key)


def mu0(ctx, F: XPoly):
    """Minimum of the p-adic values of the coefficients: v_p of the
    numerators' content, since min_j v_p(c_j) = v_p(gcd_j c_j), less
    v_p(den)."""
    if F.is_zero:
        raise ValueError("mu0 of the zero polynomial")
    p = ctx.p
    return _intval(p, gcd(*F.nums.values())) - _intval(p, F.den)


def divmod_in_var(F: XPoly, P: XPoly, pos: int):
    """Division of F by P in the variable X_pos.

    P must have a nonzero constant (variable-free) leading coefficient in
    X_pos; the remainder has strictly smaller X_pos-degree.  F is bucketed
    by X_pos-degree once and the buckets are reduced top down against the
    monic divisor P / lc; for a linear P this is synthetic division.
    """
    pb = _split(P.nums, pos)
    r = max(pb, default=-1)
    lead = pb.get(r)
    if lead is None or list(lead) != [()]:
        raise ValueError("divisor leading coefficient must be a nonzero constant")
    lcn = lead[()]
    lsign = 1 if lcn > 0 else -1
    mden = lcn * lsign
    # P_j / lc has numerators lsign * P_j over mden; stored negated so each
    # step adds
    low = [(j - r, {m: -lsign * c for m, c in t.items()}) for j, t in pb.items() if j != r]
    buckets = _split(F.nums, pos)
    w = F.den
    parts = []  # (X_pos-degree of the quotient term, numerators, their den)
    for d in range(max(buckets, default=-1), r - 1, -1):
        bd = {m: c for m, c in buckets.pop(d, {}).items() if c}
        if not bd:
            continue
        parts.append((d - r, bd, w))
        if mden != 1:
            w *= mden
            buckets = {e: {m: c * mden for m, c in t.items()} for e, t in buckets.items()}
        for off, pj in low:
            _mul_into(buckets.setdefault(d + off, {}), bd, pj)
    # quotient = sum X_pos^e * bd / w_e / lc, with lc = lcn / P.den
    quot = _unsplit(((e, bd, (w // we) * P.den * lsign) for e, bd, we in parts), pos)
    rem = _unsplit(((e, t, 1) for e, t in buckets.items()), pos)
    return XPoly._make(quot, w * mden), XPoly._make(rem, w)


def power_expansion(F: XPoly, P: XPoly, pos: int):
    """The unique list (a_0, ..., a_d) with F = sum a_j P^j and every a_j of
    X_pos-degree < deg_{X_pos} P."""
    out = []
    cur = F
    while True:
        cur, rem = divmod_in_var(cur, P, pos)
        out.append(rem)
        if cur.is_zero:
            break
    return out
