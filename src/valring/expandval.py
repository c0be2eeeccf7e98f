"""Truncated valuations, S-sets, full expansions at a chain position, their
levels and neatness, and the combinatorial window-dropping step that aligns
expansion supports across infinite plateaus.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import (INF, UniPoly, _ieval, _iexpand, _intval, _scaled, _taylor, is_finite,
                      qexpand)
from .errors import InsufficientDepth, MalformedInput
from .keychain import KeyChain, segment
from .xpoly import XPoly, mu0


def _line(chain: KeyChain, i: int, f: UniPoly, what: str) -> dict:
    """{j: nu(f_j) + j*gamma_i} over the nonzero terms of the Q_i-expansion.

    The expansion runs on f's numerators (the key is monic integral), so
    digit j is d_j / den.  A constant digit's value is v_p of its
    numerators; the oracle answers the other digits."""
    ent = chain.entry(i)
    gamma = ent.gamma
    if gamma is INF:
        raise MalformedInput(f"{what} needs a position of finite value")
    p = chain.ctx.p
    vden = _intval(p, f.den)
    out = {}
    for j, d in enumerate(_iexpand(f.nums, ent.Q.nums)):
        if not d:
            continue
        if len(d) == 1:
            v = _intval(p, d[0]) - vden
        else:
            v = chain.nu(UniPoly._make(d, f.den)).value
        out[j] = v + j * gamma
    return out


def truncate(chain: KeyChain, i: int, f: UniPoly):
    """nu_i(f) = min_j nu(f_j Q_i^j) over the Q_i-expansion, with
    coefficient values from the valuation oracle.

    At a linear key x - c every digit is a constant: the Taylor coefficient
    d_j of f's numerators at c, and term j is v_p(d_j) - v_p(den) + j*gamma_i.
    v_p(d_j) >= 0, so j*gamma_i - v_p(den) bounds term j from below, and the
    bound grows with j (gamma_i >= 0): the scan stops once it reaches the
    least term found, and the digits past it are never valued.  Digit 0 =
    f(c) comes first, from one Horner pass over f's numerators; the Taylor
    shift runs only when the bound gamma_i - v_p(den) at j = 1 is below
    digit 0's term, and the scan then goes on from j = 1."""
    ent = chain.entry(i)
    gamma, qn = ent.gamma, ent.Q.nums
    if len(qn) != 2 or gamma is INF:
        return min(_line(chain, i, f, "truncation").values(), default=INF)
    p = chain.ctx.p
    vden = _intval(p, f.den)
    t = -qn[0]
    d0 = _ieval(f.nums, t)
    best = _intval(p, d0) - vden if d0 else INF
    if gamma - vden >= best:
        return best
    digits = _taylor(f.nums, t)
    for j in range(1, len(digits)):
        if (low := j * gamma - vden) >= best:
            break
        if (c := digits[j]) and (v := _intval(p, c) + low) < best:
            best = v
    return best


def truncations(chain: KeyChain, f: UniPoly) -> list:
    """`truncate` at every star position, in order, each computed position
    through the module global.

    When `truncate` at a linear key x - c_i returns t with t + v_p(den) <
    gamma_i, every term j >= 1 lies above t, so t = v_p(f(c_i)) - v_p(den);
    f's numerators are ints, so f(c_k) = f(c_i) mod a_i = p^gamma_i, and
    every later linear key x - c_k with c_k = c_i mod a_i and gamma_k >=
    gamma_i truncates to t too.  Such positions are filled with t, both
    conditions checked at each; a key of degree > 1 drops the held t."""
    vden = _intval(chain.ctx.p, f.den)
    row, held = [], None
    for i in chain.star_positions:
        ent = chain.entries[i]
        qn, gamma = ent.Q.nums, ent.gamma
        if len(qn) != 2:
            held = None
        elif held and (qn[0] - held[0]) % held[1] == 0 and gamma >= held[2]:
            row.append(held[3])
            continue
        t = truncate(chain, i, f)
        if len(qn) == 2 and t + vden < gamma:
            held = (qn[0], ent.a, gamma, t)
        row.append(t)
    return row


@dataclass(frozen=True)
class SSet:
    position: int
    indices: tuple


def s_set(chain: KeyChain, i: int, f: UniPoly) -> SSet:
    """Indices of the Q_i-expansion attaining nu_i(f)."""
    vals = _line(chain, i, f, "S-set")
    if not vals:
        raise MalformedInput("S-set of the zero polynomial")
    m = min(vals.values())
    return SSet(i, tuple(sorted(j for j, v in vals.items() if v == m)))


@dataclass(frozen=True)
class FullExpansion:
    """A full i-th expansion: f = sum b_j Qt^(lambda_j) with min v(b_j)
    equal to nu_i(f), bounded exponents below the anchor, and at most one
    position per plateau degree."""

    anchor: int
    poly: XPoly           # sum b_j X^(lambda_j)
    nu_value: object
    index_tuple: tuple    # appearing positions, decreasing

    @property
    def terms(self) -> tuple:
        """((Fraction coeff, monom), ...) sorted by monomial."""
        return tuple(sorted(((c, m) for m, c in self.poly.terms.items()), key=lambda cm: cm[1]))


def _pick_common_position(chain: KeyChain, below_plateau: int, polys):
    """Smallest position in a plateau strictly below `below_plateau` whose
    truncation is exact on every given polynomial simultaneously."""
    seg = segment(chain)
    for k in chain.star_positions:
        if seg.q_of[k] >= below_plateau:
            break
        ok = True
        for c in polys:
            if truncate(chain, k, c) != chain.nu(c).value:
                ok = False
                break
        if ok:
            return k
    raise InsufficientDepth(
        "no chain position computes every coefficient value exactly; "
        "the truncated plateau is too shallow")


def _terms(digits, k: int, mono=()) -> list:
    """(digit, exponents) pairs of the nonzero digits of an expansion in
    Qt_k, each appending (k, j) for X_k^j."""
    return [(d, mono + ((k, j),) if j else mono) for j, d in enumerate(digits) if d]


def _cascade(chain: KeyChain, pending, k: int):
    """One cascade step: expand every nonconstant int digit of the
    (digit, exponents) pairs in Qt_k, all over f's one den: digit j of the
    Q_k-expansion times a_k^j (`qexpand`), since Qt_k = Q_k / a_k.
    Cascades visit positions top down, so the exponents run by decreasing
    position: a monomial reversed."""
    ent = chain.entries[k]
    qn, a = ent.Q.nums, 1 if ent.a is None else ent.a
    nxt = []
    for d, mono in pending:
        if len(d) == 1:
            nxt.append((d, mono))
        else:
            nxt += _terms(qexpand(d, qn, a), k, mono)
    return nxt


def _assemble(chain: KeyChain, anchor: int, pending, den: int) -> FullExpansion:
    """Collect constant (digit, exponents) pairs over den into an
    expansion."""
    nums = {}
    for d, mono in pending:
        m = mono[::-1]
        nums[m] = nums.get(m, 0) + d[0]
    poly = XPoly._make(nums, den)
    appearing = sorted({k for m in poly.nums for k, _ in m}, reverse=True)
    return FullExpansion(anchor, poly, mu0(chain.ctx, poly), tuple(appearing))


def full_expansion(chain: KeyChain, i: int, f: UniPoly, digits=None) -> FullExpansion:
    """Constructive full i-th expansion: expand in Qt_i, then cascade the
    coefficients through one common position per lower plateau.  `digits`,
    when given, is the Q_i-expansion of f's numerators (`_iexpand`), read
    instead of computed again."""
    if f.is_zero:
        raise MalformedInput("no full expansion of zero")
    # i_max is the one position of infinite value
    ent = chain.entry(i)
    if not is_finite(ent.gamma):
        raise MalformedInput("anchor must be a pre-maximal position")
    seg = segment(chain)
    den = f.den
    if digits is None:
        pending = _cascade(chain, [(f.nums, ())], i)
    else:
        pending = _terms(_scaled(digits, ent.a), i)
    level_pos = i
    while nonconst := [UniPoly._make(list(d), den) for d, _ in pending if len(d) > 1]:
        k = _pick_common_position(chain, seg.q_of[level_pos], nonconst)
        pending = _cascade(chain, pending, k)
        level_pos = k
    return _assemble(chain, i, pending, den)


def expansion_from_index_tuple(chain: KeyChain, f: UniPoly, anchor: int,
                               index_tuple) -> FullExpansion:
    """Reproduce an expansion from its appearing-index tuple: a pure cascade
    of expansions at exactly those positions, no valuation choices."""
    pending = [(f.nums, ())]
    for k in sorted(set(index_tuple) | {anchor}, reverse=True):
        pending = _cascade(chain, pending, k)
    if any(len(d) > 1 for d, _ in pending):
        raise MalformedInput("index tuple does not reach constant coefficients")
    return _assemble(chain, anchor, pending, f.den)


def check_conditions(chain: KeyChain, exp: FullExpansion, f: UniPoly) -> dict:
    """The three defining conditions plus the evaluation identity."""
    seg = segment(chain)
    ok1 = exp.nu_value == truncate(chain, exp.anchor, f)
    ok2 = True
    for m in exp.poly.nums:
        for k, e in m:
            if k == exp.anchor:
                continue
            deg = chain.entries[k].Q.degree
            if not e * deg < seg.n_plus[deg]:
                ok2 = False
    degs = [chain.entries[k].Q.degree for k in exp.index_tuple]
    ok3 = len(degs) == len(set(degs))
    ok_eval = chain.evaluate(exp.poly) == f
    return {"min_is_truncation": ok1, "exponent_bounds": ok2,
            "one_position_per_degree": ok3, "evaluation_identity": ok_eval}


def expansion_level(chain: KeyChain, exp: FullExpansion):
    """(level, neat flag, plateau -> appearing position map).

    Neat means all truncated-infinite plateaus carry a common offset, which
    always holds since only the last plateau can be one (see `segment`); the
    level is its offset, or 0 when it is not involved.
    """
    seg = segment(chain)
    jmap = {}
    for pl in seg.plateaus:
        hits = [k for k in exp.index_tuple if k in pl.positions]
        jmap[pl.q] = max(hits) if hits else None
    final = seg.plateaus[-1]
    top = jmap[final.q]
    level = top - final.first if final.flag == "truncated-infinite" and top is not None else 0
    return level, True, jmap


@dataclass(frozen=True)
class NeatRevision:
    plateau_sizes: tuple
    supports: tuple       # tuple of dicts plateau index -> offset
    windows: tuple        # (plateau index, start offset, stop offset) dropped


def make_neat(plateau_sizes, supports, s: int) -> NeatRevision:
    """Align every stored support to offset s on each infinite plateau by
    dropping the index window [s, u) there and re-indexing.

    Operates on the combinatorial skeleton only: plateau_sizes entries are
    ints or None (infinite); supports are maps plateau index -> offset.
    Processes infinite plateaus in decreasing order; at most one pass each.
    """
    sizes = list(plateau_sizes)
    sup = [dict(x) for x in supports]
    windows = []
    for qi in range(len(sizes) - 1, -1, -1):
        if sizes[qi] is not None:
            continue
        used = sorted({d[qi] for d in sup if qi in d})
        above = [o for o in used if o != s]
        if not above:
            continue
        if len(above) > 1 or above[0] < s:
            raise MalformedInput(
                f"plateau {qi}: offsets {used} do not share a single excess offset")
        u = above[0]
        if any(s <= d[qi] < u for d in sup if qi in d):
            raise MalformedInput(
                f"plateau {qi}: a support lies inside the dropped window")
        for d in sup:
            if qi in d and d[qi] >= u:
                d[qi] -= u - s
        windows.append((qi, s, u))
    return NeatRevision(tuple(sizes), tuple(sup), tuple(windows))
