"""The rewriting calculus on K[X]: virtual degree, the termination order,
neat polynomials, buildings and reductions with cofactor traces, the total
s-building and the total reduction.

A building trades powers of a relation body Q_{li}/b_{li} for the variable
X_l; a reduction substitutes the body back.  Traces record exact cofactors:
output = input + sum(cofactor * relation generator) syntactically, and each
step's cofactor is the exact quotient by its relation generator b X_l - Q_{li}
in X_l, as in `presentrel.i1_decompose`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import UniPoly, qexpand
from .errors import MalformedInput, StepCapExceeded
from .keychain import KeyChain, segment
from .presentrel import ideal_generators, relation
from .xpoly import XPoly, _monom_key, divmod_in_var, power_expansion

LESS = "less"
GREATER = "greater"
EQUAL = "equal"
INCOMPARABLE = "incomparable"


def _check_positions(chain: KeyChain, F: XPoly):
    """Every variable of F is a star position 0 .. n - 1; a monomial lists
    its positions in increasing order, so its ends decide."""
    n = len(chain.entries) - chain.complete
    if any(m and (m[0][0] < 0 or m[-1][0] >= n) for m in F.nums):
        k = min(k for k in F.variables() if not 0 <= k < n)
        raise MalformedInput(f"variable X_{k} out of range for this chain")


def vdeg(chain: KeyChain, F: XPoly) -> int:
    """Virtual degree: each X_i weighs deg_x Q_i."""
    if F.is_zero:
        raise MalformedInput("virtual degree of zero")
    _check_positions(chain, F)
    return max(_vdeg_monom(chain, m) for m in F.nums)


def _vdeg_monom(chain, m):
    return sum(e * chain.entries[k].Q.degree for k, e in m)


def prec_compare(chain: KeyChain, F: XPoly, G: XPoly) -> str:
    """The partial order on polynomials: compare virtually homogeneous
    components from the top degree down; within a degree compare the sorted
    monomial support lists lexicographically.  Equal supports with different
    coefficients are incomparable."""
    if F == G:
        return EQUAL
    parts_f = {}
    parts_g = {}
    for m, c in F.terms.items():
        parts_f.setdefault(_vdeg_monom(chain, m), {})[m] = c
    for m, c in G.terms.items():
        parts_g.setdefault(_vdeg_monom(chain, m), {})[m] = c
    degrees = sorted(set(parts_f) | set(parts_g), reverse=True)
    for d in degrees:
        pf, pg = parts_f.get(d, {}), parts_g.get(d, {})
        if pf == pg:
            continue
        sf = sorted(pf, key=_monom_key, reverse=True)
        sg = sorted(pg, key=_monom_key, reverse=True)
        for mf, mg in zip(sf, sg):
            if mf == mg:
                continue
            return LESS if _monom_key(mf) < _monom_key(mg) else GREATER
        if len(sf) != len(sg):
            # the shorter list is padded with zeroes, which are lex-smallest
            return LESS if len(sf) < len(sg) else GREATER
        return INCOMPARABLE
    return INCOMPARABLE


@dataclass(frozen=True)
class NeatReport:
    neat: bool
    level: int
    note: str | None = None


def is_neat(chain: KeyChain, F: XPoly) -> NeatReport:
    """The three neatness conditions.

    Condition (1), one variable per plateau, is enforced literally on
    truncated-infinite plateaus; on finite multi-element plateaus (full
    mode) a violation is tolerated and flagged, since collapsed indexing
    would separate those positions.  Zero, like a constant, has no
    variables: it is neat of level 0.
    """
    _check_positions(chain, F)
    seg = segment(chain)
    vars_ = F.variables()
    note = None
    level = 0
    prev = None
    for k in vars_:  # increasing, so a plateau's hits are consecutive
        q = seg.q_of[k]
        pl = seg.plateaus[q - 1]
        if q == prev:
            if pl.flag == "truncated-infinite":
                return NeatReport(False, 0, "two variables in an infinite plateau")
            note = "neat under collapsed indexing"
        elif pl.flag == "truncated-infinite":
            level = k - pl.first  # the only infinite plateau is the last
        prev = q
    for k in vars_[:-1]:
        dk = chain.entries[k].Q.degree
        if not F.degree_in(k) * dk < seg.n_plus[dk]:
            return NeatReport(False, 0, f"exponent bound fails at X_{k}")
    return NeatReport(True, level, note)


@dataclass(frozen=True)
class TraceStep:
    pair: tuple           # (i, ell)
    target: object        # the I1 generator's target position
    cofactor: XPoly
    direction: str        # "building" | "reduction"


def replay(chain: KeyChain, steps) -> XPoly:
    """Sum of cofactor * relation generator over a trace."""
    return ideal_generators(chain).combine((st.target, st.cofactor) for st in steps)


def _body(chain: KeyChain, i: int, ell: int):
    """The relation generator of the pair (i, ell).  Only an I1 pair has a
    variable X_ell; the final pair of a complete chain is g's (I2)."""
    gen = relation(chain, ell, i)
    if gen.kind != "I1":
        raise MalformedInput(f"({i}, {ell}) is an I2 pair: no X_{ell} to build or reduce")
    return gen


def building(chain: KeyChain, F: XPoly, i: int, ell: int, trace=None) -> XPoly:
    """(i, ell)-building: write F in powers of Q_{li}/b_{li} with X_i-degree
    of the coefficients below deg_{Q_i} Q_l, then substitute X_ell.  The
    trace cofactor is the exact quotient of output - F by the relation
    generator in X_ell."""
    _check_positions(chain, F)
    gen = _body(chain, i, ell)
    r = chain.entries[ell].Q.degree // chain.entries[i].Q.degree
    if F.degree_in(i) < r:
        return F
    coeffs = power_expansion(F, gen.Q_poly / gen.b, i)
    xell = XPoly.var(ell)
    out = coeffs[-1]
    for aj in reversed(coeffs[:-1]):
        out = out * xell + aj
    if trace is not None:
        cof, rem = divmod_in_var(out - F, gen.relation_poly, ell)
        if not rem.is_zero:
            raise AssertionError("building is not a multiple of its relation generator")
        trace.append(TraceStep((i, ell), ell, cof, "building"))
    return out


def reduction(chain: KeyChain, F: XPoly, i: int, ell: int, trace=None) -> XPoly:
    """(i, ell)-reduction: substitute Q_{li}/b_{li} for X_ell, as the
    remainder of F by the relation generator b X_ell - Q_{li} in X_ell; the
    trace cofactor is minus the exact quotient."""
    _check_positions(chain, F)
    quot, out = divmod_in_var(F, _body(chain, i, ell).relation_poly, ell)
    if trace is not None:
        trace.append(TraceStep((i, ell), ell, -quot, "reduction"))
    return out


def _window(chain: KeyChain, F: XPoly, s: int, through=None):
    """The working window Theta: positions of offset <= s in plateaus up to
    the top plateau of F's variables (or of `through`, when given)."""
    seg = segment(chain)
    vars_ = F.variables()
    if not vars_ and through is None:
        return []
    qtop = max((seg.q_of[k] for k in vars_), default=1)
    if through is not None:
        qtop = max(qtop, seg.q_of[through])
    out = []
    for pl in seg.plateaus[:qtop]:
        if pl.positions and pl.positions[-1] == chain.imax_pos:
            continue
        for k in pl.positions:
            if k - pl.first <= s:
                out.append(k)
    return out


def _applicable(chain: KeyChain, F: XPoly, i: int, ell: int) -> bool:
    ratio = chain.entries[ell].Q.degree // chain.entries[i].Q.degree
    return F.degree_in(i) >= max(ratio, 1)


def total_s_building(chain: KeyChain, F: XPoly, s: int, trace=None,
                     order: str = "least", through=None) -> XPoly:
    """Apply buildings inside the offset-s window until none is applicable.

    Deterministic pair selection (least applicable source position, or
    greatest with order="greatest"); every step strictly decreases the
    polynomial in the termination order, and a defensive step cap turns an
    impossible loop into a loud failure.  `through` widens the window to
    the plateau of that position (used by certificate generation).
    """
    if F.is_zero:
        return F
    _check_positions(chain, F)
    seg = segment(chain)
    for k in F.variables():
        if seg.offset(k) > s:
            raise MalformedInput(
                f"X_{k} sits at offset {seg.offset(k)} > s = {s}")
    window = _window(chain, F, s, through)
    n_monoms = len(F.nums)
    max_expsum = max((sum(e for _, e in m) for m in F.nums), default=0)
    cap = 10 * max(1, n_monoms) * (len(window) + max_expsum) ** 2 + 10
    cur = F
    steps = 0
    while True:
        # the building target of i is its successor i + 1 (see `segment`)
        candidates = [(i, i + 1) for i in window
                      if i + 1 in window and _applicable(chain, cur, i, i + 1)]
        if not candidates:
            return cur
        pick = min(candidates) if order == "least" else max(candidates)
        cur = building(chain, cur, pick[0], pick[1], trace)
        steps += 1
        if steps > cap:
            raise StepCapExceeded(f"total s-building exceeded {cap} steps")


def in_x0(chain: KeyChain, f: UniPoly) -> UniPoly:
    """f in the coordinate X_0 = Qt_0: the constant digits of its
    Qt_0-expansion over f's den (Qt_0 has degree 1; in full mode Qt_0 = x
    and f is unchanged)."""
    ent = chain.entries[0]
    digits = qexpand(f.nums, ent.Q.nums, 1 if ent.a is None else ent.a)
    return UniPoly._make([d[0] if d else 0 for d in digits], f.den)


def total_reduction(chain: KeyChain, F: XPoly, trace=None) -> UniPoly:
    """Collapse to K[X_0]: the evaluation X_i -> Qt_i written in the
    coordinate X_0 = Qt_0.

    With a trace, the same result is produced by a chain of reductions at
    immediate-predecessor pairs and both routes are compared exactly.
    """
    _check_positions(chain, F)
    direct = in_x0(chain, chain.evaluate(F))
    if trace is not None:
        stepwise = F
        while (top := max(stepwise.variables(), default=0)) != 0:
            stepwise = reduction(chain, stepwise, top - 1, top, trace)
        if stepwise.to_unipoly(0) != direct:
            raise AssertionError("reduction trace disagrees with the evaluation")
    return direct
