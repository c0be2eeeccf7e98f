"""Sparse exact polynomials in the chain variables X_0, X_1, ...

A monomial is a tuple of (position, exponent) pairs sorted by position with
all exponents positive; the empty tuple is 1.  Terms are kept in a dict, so
equality is syntactic once zero coefficients are dropped.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .algebra import UniPoly, _as_fraction, pval

Monom = tuple


def monom(d: dict) -> Monom:
    return tuple(sorted((int(k), int(v)) for k, v in d.items() if v))


def monom_mul(a: Monom, b: Monom) -> Monom:
    out = dict(a)
    for k, v in b:
        out[k] = out.get(k, 0) + v
    return monom(out)


def monom_degree_in(m: Monom, pos: int) -> int:
    for k, v in m:
        if k == pos:
            return v
    return 0


class XPoly:
    __slots__ = ("terms",)

    def __init__(self, terms=None):
        t = {}
        if terms:
            for m, c in (terms.items() if isinstance(terms, dict) else terms):
                c = _as_fraction(c)
                if c == 0:
                    continue
                m = monom(dict(m))
                c0 = t.get(m)
                t[m] = c if c0 is None else c0 + c
                if t[m] == 0:
                    del t[m]
        object.__setattr__(self, "terms", t)

    def __setattr__(self, *a):
        raise AttributeError("XPoly is immutable")

    # -- constructors -------------------------------------------------------

    @classmethod
    def var(cls, pos: int) -> "XPoly":
        return cls({((pos, 1),): Fraction(1)})

    @classmethod
    def const(cls, c) -> "XPoly":
        return cls({(): c})

    @classmethod
    def zero(cls) -> "XPoly":
        return cls()

    @classmethod
    def from_unipoly(cls, u: UniPoly, pos: int) -> "XPoly":
        return cls({((pos, j),) if j else (): c for j, c in enumerate(u.coeffs)})

    # -- basic queries -------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_constant(self) -> bool:
        return all(m == () for m in self.terms)

    def constant_value(self) -> Fraction:
        return self.terms.get((), Fraction(0))

    def variables(self):
        out = set()
        for m in self.terms:
            for k, _ in m:
                out.add(k)
        return sorted(out)

    def degree_in(self, pos: int) -> int:
        return max((monom_degree_in(m, pos) for m in self.terms), default=0)

    def coeffs_in(self, pos: int):
        """Decompose as a polynomial in X_pos: dict exponent -> XPoly free
        of X_pos."""
        out = {}
        for m, c in self.terms.items():
            e = monom_degree_in(m, pos)
            rest = tuple((k, v) for k, v in m if k != pos)
            out.setdefault(e, {})
            out[e][rest] = out[e].get(rest, Fraction(0)) + c
        return {e: XPoly(t) for e, t in out.items() if any(v != 0 for v in t.values())}

    @property
    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self.terms.values())

    def denominator_lcm(self) -> int:
        return lcm(*(c.denominator for c in self.terms.values()))

    # -- arithmetic ----------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = XPoly.const(other)
        return isinstance(other, XPoly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        other = self._coerce(other)
        t = dict(self.terms)
        for m, c in other.terms.items():
            t[m] = t.get(m, Fraction(0)) + c
            if t[m] == 0:
                del t[m]
        return XPoly(t)

    __radd__ = __add__

    def __neg__(self):
        return XPoly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            other = _as_fraction(other)
            return XPoly({m: c * other for m, c in self.terms.items()})
        other = self._coerce(other)
        t = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = monom_mul(m1, m2)
                t[m] = t.get(m, Fraction(0)) + c1 * c2
        return XPoly(t)

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        scalar = _as_fraction(scalar)
        return XPoly({m: c / scalar for m, c in self.terms.items()})

    def __pow__(self, n: int):
        out = XPoly.const(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    @staticmethod
    def _coerce(other) -> "XPoly":
        if isinstance(other, XPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return XPoly.const(other)
        raise TypeError(f"cannot coerce {other!r}")

    # -- substitution ----------------------------------------------------------

    def substitute(self, pos: int, repl: "XPoly") -> "XPoly":
        out = XPoly.zero()
        powers = {0: XPoly.const(1)}
        for e, coeff in self.coeffs_in(pos).items():
            if e not in powers:
                powers[e] = repl ** e
            out = out + coeff * powers[e]
        return out

    def eval_unipoly(self, images: dict) -> UniPoly:
        """Substitute UniPoly images for every variable; exact result in Q[x]."""
        out = UniPoly()
        for m, c in self.terms.items():
            term = UniPoly((c,))
            for k, v in m:
                term = term * images[k] ** v
            out = out + term
        return out

    def to_unipoly(self, pos: int) -> UniPoly:
        """View a polynomial supported on the single variable X_pos as a
        UniPoly in that variable."""
        coeffs = {}
        for m, c in self.terms.items():
            if m == ():
                coeffs[0] = c
            elif len(m) == 1 and m[0][0] == pos:
                coeffs[m[0][1]] = c
            else:
                raise ValueError(f"not supported on X_{pos}: {self!r}")
        if not coeffs:
            return UniPoly()
        return UniPoly(tuple(coeffs.get(j, Fraction(0)) for j in range(max(coeffs) + 1)))

    # -- canonical ordering ------------------------------------------------------

    def sorted_terms(self):
        """Terms sorted with the canonical order: exponent maps compared
        position by position, descending."""
        return sorted(self.terms.items(), key=lambda mc: _monom_key(mc[0]), reverse=True)

    def __repr__(self):
        if self.is_zero:
            return "0"
        parts = []
        for m, c in self.sorted_terms():
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


def _monom_key(m: Monom):
    if not m:
        return ()
    top = m[-1][0]
    return tuple(monom_degree_in(m, k) for k in range(top + 1))


def mu0(ctx, F: XPoly):
    """Minimum of the p-adic values of the coefficients."""
    if F.is_zero:
        raise ValueError("mu0 of the zero polynomial")
    p_ctx = getattr(ctx, "ctx", ctx)
    return min(pval(p_ctx, c) for c in F.terms.values())


def divmod_in_var(F: XPoly, P: XPoly, pos: int):
    """Division of F by P in the variable X_pos.

    P must have a nonzero constant (variable-free) leading coefficient in
    X_pos; the remainder has strictly smaller X_pos-degree.
    """
    r = P.degree_in(pos)
    lead = P.coeffs_in(pos).get(r)
    if lead is None or not lead.is_constant:
        raise ValueError("divisor leading coefficient must be a nonzero constant")
    lc = lead.constant_value()
    quot = XPoly.zero()
    rem = F
    d = rem.degree_in(pos)
    while d >= r and not rem.is_zero:
        shift = XPoly({((pos, d - r),) if d > r else (): Fraction(1)})
        q = rem.coeffs_in(pos)[d] * shift / lc
        quot = quot + q
        rem = rem - q * P
        last, d = d, rem.degree_in(pos)
        if not rem.is_zero and d >= last:
            raise AssertionError("division failed to reduce degree")
    return quot, rem


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
