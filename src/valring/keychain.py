"""Key-polynomial chains for nu(f) = v(f(eta)) by successive augmentation.

A chain entry holds a monic key polynomial Q_i together with its exact value
gamma_i = nu(Q_i).  Augmentation expands the generator g in the current key,
reads the residual polynomial of the minimal segment, lifts a chosen
irreducible factor to the next key and assigns its value from the admissible
slopes of the new Newton polygon.  Branch choices (several admissible slopes
or several residual factors) select the extension of v to L.

The per-entry residue data (a small finite field and the residue z_i of the
normalized key at eta) drives residual-polynomial computation; values are
computed by an exact recursive evaluator which, on the domains used here,
agrees with the true valuation.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from math import gcd

from .algebra import (
    INF,
    BranchDescriptor,
    OracleValue,
    ResidueClass,
    ResidueField,
    UniPoly,
    ValuedFieldCtx,
    _embedded,
    _ieval,
    _iexpand,
    _intval,
    hensel_root,
    is_finite,
    nu_oracle,
)
from .errors import (
    AmbiguousBranch,
    InsufficientDepth,
    MalformedInput,
    NoConvergence,
    OracleUnavailable,
    RamifiedBranch,
    UnsupportedNormalization,
)

FULL = "full"
COLLAPSED = "collapsed"
IMAX = "imax"


@dataclass(frozen=True)
class ChainEntry:
    """One key of a chain.  Every key Q is monic with integer coefficients
    (`gauss_start`, `_refine_key`, `_jump_key`, `_hensel_tail` and g itself
    build no other), so expansions in Q run on integer numerators
    (`KeyChain.ivalue`)."""

    position: int
    Q: UniPoly
    gamma: object            # int, or INF at i_max
    a: int | None            # p**gamma, None at i_max
    Qt: UniPoly              # Q / a (Q itself at i_max)
    res_field: ResidueField | None = None   # field containing z
    z: int | None = None                    # residue of Qt(eta); None until known
    emb_prev: int | None = None             # image of previous entry's field generator


def _entry(ctx: ValuedFieldCtx, position: int, Q: UniPoly, gamma: int,
           res_field=None, z=None, emb_prev=None) -> ChainEntry:
    # (res_field, z, emb_prev): the residue data of a finished entry.  Q is
    # monic integral, so its numerators over a are in lowest terms
    a = ctx.p ** gamma
    return ChainEntry(position, Q, gamma, a, UniPoly._raw(Q.nums, a), res_field, z, emb_prev)


@dataclass(frozen=True)
class KeyChain:
    ctx: ValuedFieldCtx
    g: UniPoly
    entries: tuple
    status: str              # "complete" | "prefix-of-infinite-plateau"
    mode: str                # "full" | "collapsed"
    branch_log: tuple = ()

    @property
    def complete(self) -> bool:
        return self.status == "complete"

    @property
    def imax_pos(self):
        return self.entries[-1].position if self.complete else None

    @property
    def star_positions(self):
        n = len(self.entries)
        return list(range(n - 1 if self.complete else n))

    def entry(self, i: int) -> ChainEntry:
        if not 0 <= i < len(self.entries):
            raise MalformedInput(f"position {i} out of range")
        return self.entries[i]

    # -- recursive value evaluator ------------------------------------------

    def value_below(self, k: int, f: UniPoly):
        """Exact value of f computed from entries 0..k by cascaded
        expansions; valid whenever deg f stays below the next plateau degree
        above k.  v(n/d) = v(n) - v(d), so the cascade runs on f's
        numerators."""
        if f.is_zero:
            return INF
        return self.ivalue(k, f.nums) - _intval(self.ctx.p, f.den)

    def ivalue(self, k: int, nums):
        """`value_below` of the integer polynomial with nonempty numerator
        list nums: skip the entries of infinite value or of degree above
        deg f, expand in the first other key and take the least of its
        value line below it; v_p at a constant."""
        n = len(nums)
        while n > 1 and k >= 0:
            ent = self.entries[k]
            qn = ent.Q.nums
            if n >= len(qn) and ent.gamma is not INF:
                return min(self.value_line(k - 1, _iexpand(nums, qn), ent.gamma).values())
            k -= 1
        if n > 1:
            raise AssertionError("nonconstant reached the base of the evaluator")
        return _intval(self.ctx.p, nums[0])

    def value_line(self, k: int, digits, gamma) -> dict:
        """{j: ivalue(k, d_j) + j*gamma} over the nonzero int digits d_j of
        an expansion in a key of value gamma: the points of its Newton
        polygon, raised along slope -gamma."""
        p = self.ctx.p
        return {j: (_intval(p, d[0]) if len(d) == 1 else self.ivalue(k, d)) + j * gamma
                for j, d in enumerate(digits) if d}

    def resval(self, k: int, nums, den: int):
        """(value, residue, field) of the polynomial f with numerator list
        nums over den, from entries 0..k.  The residue of f(eta)/p^value is
        z_k^l R(z_k), R the residual polynomial of f's Q_k-expansion along
        its minimal segment (slope -gamma_k, first index l), in the stage
        field of entry k; F_p for a constant f or k < 0.  It is nonzero on
        the evaluator's exactness domain."""
        p = self.ctx.p
        if k < 0 or len(nums) == 1:
            n = nums[0]
            vn, vd = _intval(p, n), _intval(p, den)
            fp = self.ctx.residue_field
            return vn - vd, fp.from_int(n // p ** vn * pow(den // p ** vd, -1, p)), fp
        ent = self.entries[k]
        if ent.z is None or ent.res_field is None:
            raise AssertionError(f"residue data missing at position {k}")
        digits = _iexpand(nums, ent.Q.nums)
        line = self.value_line(k - 1, digits, ent.gamma)
        low, coeffs, sub = _residual(self, k, digits, den, line)
        fld, z = ent.res_field, ent.z
        res = fld.zero
        for c in reversed(coeffs):
            c = c if sub == fld else _embedded(sub, fld, ent.emb_prev, c)
            res = fld.add(fld.mul(res, z), c)
        res = fld.mul(res, fld.pow(z, low))
        if fld.is_zero(res):
            raise AssertionError("vanishing residue: evaluator used outside its domain")
        return min(line.values()) - _intval(p, den), res, fld

    # -- oracle plumbing ------------------------------------------------------

    def branch_descriptor(self) -> BranchDescriptor:
        """The chain's branch, built once and kept in its cache; the refusal
        at a truncated plateau of degree > 1 is raised each time."""
        cache = self.cache()
        got = cache.get("branch")
        if got is not None:
            return got
        if self.complete:
            # a branch choice means g splits over Q_p, so no chain with a
            # branch log completes: a complete chain's extension is unique
            got = BranchDescriptor("unique")
        else:
            last = self.entries[-1]
            if last.Q.degree != 1:
                raise OracleUnavailable(
                    "truncated plateau of degree > 1: branch root not in the completion")
            c = -last.Q.nums[0]
            seed = ResidueClass(c % self.ctx.p ** int(last.gamma), int(last.gamma))
            got = BranchDescriptor("hensel", seed)
        cache["branch"] = got
        return got

    def evaluate(self, F) -> UniPoly:
        """The evaluation X_i -> Qt_i(x) of a polynomial in the chain
        variables, exactly in Q[x].  The images Qt_i and their powers
        Qt_i^v are kept in the chain's cache."""
        cache = self.cache()
        images = cache.get("qt_images")
        if images is None:
            images = cache["qt_images"] = {k: ent.Qt for k, ent in enumerate(self.entries)}
        return F.eval_unipoly(images, cache.setdefault("qt_powers", {}))

    def nu(self, h: UniPoly) -> OracleValue:
        # chains are immutable, so the cached Hensel root and values stay
        # sound; a raised OracleUnavailable is not kept.  nu(n/d) = nu(n) -
        # v_p(d), so the memo keeps nu(n) under the numerators n (INF
        # absorbs the shift)
        memo = self.cache().setdefault("nu", {})
        vden = _intval(self.ctx.p, h.den)
        got = memo.get(h.nums)
        if got is None:
            got = nu_oracle(self.ctx, self.g, self.branch_descriptor(), h, self.cache())
            memo[h.nums] = OracleValue(got.value + vden, got.method) if vden else got
        elif vden:
            got = OracleValue(got.value + -vden, got.method)
        return got

    def __post_init__(self):
        object.__setattr__(self, "_cache", {})

    def cache(self):
        return self._cache


# ---------------------------------------------------------------------------
# Newton polygons
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Segment:
    slope: object       # an int, or a Fraction when the length does not divide the rise
    length: int         # horizontal extent
    multiplicity: int   # lattice subdivisions, gcd(length, |rise|)


@dataclass(frozen=True)
class NewtonPolygon:
    points: tuple     # all (j, value) with nonzero coefficient
    vertices: tuple   # points lying on the lower hull, left to right
    segments: tuple   # merged hull edges by increasing slope


def _polygon(points):
    """The lower hull of the integer points: its corners left to right and
    its edges as Segments by increasing slope.  Slopes are ints where they
    can be, which keeps `Fraction` off the augmentation path."""
    hull = []
    for pt in sorted(points):
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            # strict right turn keeps only corners
            if (x2 - x1) * (pt[1] - y1) - (pt[0] - x1) * (y2 - y1) <= 0:
                hull.pop()
            else:
                break
        hull.append(pt)
    segments = []
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        t, r = divmod(y2 - y1, x2 - x1)
        slope = Fraction(y2 - y1, x2 - x1) if r else t
        segments.append(Segment(slope, x2 - x1, gcd(x2 - x1, y2 - y1)))
    return hull, tuple(segments)


def newton_polygon(chain: KeyChain, i: int, f: UniPoly) -> NewtonPolygon:
    """Lower hull of (j, nu(f_j)) over the Q_i-expansion of f; coefficient
    values come from the chain-internal evaluator."""
    ent = chain.entry(i)
    if not is_finite(ent.gamma):
        raise MalformedInput("polygon needs a position of finite value")
    if f.is_zero:
        raise MalformedInput("polygon of the zero polynomial")
    vden = _intval(chain.ctx.p, f.den)
    line = chain.value_line(i - 1, _iexpand(f.nums, ent.Q.nums), 0)
    pts = [(j, v - vden) for j, v in line.items()]
    if len(pts) == 1:
        return NewtonPolygon((pts[0],), (pts[0],), ())
    corners, segments = _polygon(pts)
    on_hull = []
    for pt in pts:
        for (x1, y1), (x2, y2) in zip(corners, corners[1:]):
            if x1 <= pt[0] <= x2 and (pt[1] - y1) * (x2 - x1) == (pt[0] - x1) * (y2 - y1):
                on_hull.append(pt)
                break
    return NewtonPolygon(tuple(pts), tuple(on_hull), segments)


def residual_poly(chain: KeyChain, i: int, f: UniPoly, slope):
    """Residual polynomial of f along the polygon segment of the given
    slope, over the stage residue field below position i.

    Returns (coeff tuple over the field, field).  A fractional slope means
    the value increment is not in vK = Z: that branch is ramified.
    """
    slope = Fraction(slope)
    poly = newton_polygon(chain, i, f)
    if len(poly.points) == 1:
        raise MalformedInput("degenerate polygon has no segments")
    if all(s.slope != slope for s in poly.segments):
        raise MalformedInput(f"no segment of slope {slope}")
    t = -slope
    if t.denominator != 1:
        raise RamifiedBranch(f"fractional slope {slope}: e = 1 fails on this branch")
    line = {j: v + int(t) * j for j, v in poly.points}
    digits = _iexpand(f.nums, chain.entry(i).Q.nums)
    return _residual(chain, i, digits, f.den, line)[1:]


def _residual(chain: KeyChain, i: int, digits, den: int, line: dict):
    """(first index, coefficients, field) of the residual polynomial of a
    Q_i-expansion along the minimal segment of a value line.

    The expansion's digits are f_j = digits[j] / den and line[j] is
    nu(f_j) + t*j for every nonzero f_j, for an integer t; the segment
    joins the indices where line is least, and there the coefficient is the
    residue of f_j (`KeyChain.resval`), in the stage field below i.
    """
    m = min(line.values())
    on_line = [j for j, v in line.items() if v == m]
    fld = chain.entries[i - 1].res_field if i else chain.ctx.residue_field
    if fld is None:
        raise AssertionError("stage field missing")
    coeffs = []
    for j in range(on_line[0], on_line[-1] + 1):
        if line.get(j) != m:
            coeffs.append(fld.zero)
            continue
        # a constant digit's residue lies in F_p, whose elements are those
        # of every stage field
        coeffs.append(chain.resval(i - 1, digits[j], den)[1])
    return on_line[0], tuple(coeffs), fld


# ---------------------------------------------------------------------------
# Chain construction
# ---------------------------------------------------------------------------

def gauss_start(ctx: ValuedFieldCtx, g: UniPoly) -> KeyChain:
    """Initial chain [x with value 0]; requires every root of g to be a
    unit, i.e. integral monic g with unit constant term and flat Newton
    polygon."""
    if not g.is_monic or g.degree < 1:
        raise UnsupportedNormalization("generator must be monic nonconstant")
    if not g.is_integral:
        raise UnsupportedNormalization("generator must have integral coefficients")
    if _intval(ctx.p, g.nums[0]) != 0:
        raise UnsupportedNormalization(
            "v(g(0)) != 0: rescale the generator so every root is a unit")
    # g integral and monic with v(g(0)) = 0 has a flat Newton polygon
    entry = _entry(ctx, 0, UniPoly.x(), 0)
    return KeyChain(ctx, g, (entry,), "prefix-of-infinite-plateau", FULL)


def _g_expansion(chain: KeyChain):
    """(digits, line) for the top key Q: the Q-expansion of g as int lists
    and its value line {j: ivalue(top - 1, g_j) + j*nu(Q)}.  The step that
    built Q seeded both into the chain's cache; on a miss (the Gauss chain,
    a collapsed chain, a copy) they are computed and cached here."""
    cache = chain.cache()
    got = cache.get("g_expansion")
    if got is None:
        top = chain.entries[-1]
        k = len(chain.entries) - 2
        digits = _iexpand(chain.g.nums, top.Q.nums)
        got = cache["g_expansion"] = (digits, chain.value_line(k, digits, top.gamma))
    return got


@dataclass(frozen=True)
class BranchPoint:
    """Record of one augmentation step's menus and the picks made."""
    step: int
    factor_options: tuple
    factor_pick: int
    slope_options: tuple
    slope_pick: int


def _refine_key(chain: KeyChain, root, fld: ResidueField) -> UniPoly:
    """Same-degree refinement of the top key along a linear residual factor."""
    top = chain.entries[-1]
    p = chain.ctx.p
    if top.Q.degree != 1:
        raise MalformedInput(
            "within-plateau refinement above degree 1 is not constructible here")
    if fld.k != 1:
        raise AssertionError("degree-1 plateau with extended residue field")
    c_prev = -top.Q.nums[0]
    gamma = int(top.gamma)
    if gamma == 0:
        # first refinement of the Gauss key: coefficientwise lift of the
        # factor y - root, i.e. x - c with c = -(p - root) reduced: x + lift
        c_new = -((p - root) % p)
    else:
        c_new = (c_prev + root * p ** gamma) % p ** (gamma + 1)
    return UniPoly._raw((-c_new, 1), 1)


def _jump_key(chain: KeyChain, phi, fld: ResidueField) -> UniPoly:
    """Degree-jump lift: recombine the coefficientwise-smallest lift of the
    chosen factor (its coefficients, ints in range(p)) with powers of Q."""
    top = chain.entries[-1]
    p = chain.ctx.p
    if fld.k != 1:
        raise MalformedInput(
            "degree jump over an extended residue field is not constructible here")
    d = len(phi) - 1
    gamma = int(top.gamma)
    out = UniPoly()
    for k, c in enumerate(phi):
        if c:
            out = out + top.Q ** k * (c * p ** ((d - k) * gamma))
    return out


def _admissible_slopes(chain: KeyChain, cand: UniPoly):
    """Slopes -t of the candidate's polygon with t above the current
    truncation value of the candidate; these are the possible values
    nu(candidate) across branches through the current stage, steepest (largest
    t) first (an int t unless the hull step does not divide).  Also returns
    the candidate-expansion of g as int lists and its points
    {j: ivalue(k, g_j)}.  Only the chain's keys and values are read."""
    k = len(chain.entries) - 1
    threshold = chain.ivalue(k, cand.nums)
    digits = _iexpand(chain.g.nums, cand.nums)
    pts = chain.value_line(k, digits, 0)
    if 0 not in pts:
        raise MalformedInput("candidate key divides g; g is reducible")
    slopes = [-s.slope for s in _polygon(pts.items())[1] if s.slope < -threshold]
    return slopes, digits, pts


def _pick(branch_choice, step: int, factors, options, what: str):
    """The (slope index, factor index) pair a menu of several options
    consumes, or None at a forced menu."""
    if len(options) < 2:
        return None
    if branch_choice is None:
        raise AmbiguousBranch(f"step {step}: {len(options)} {what}")
    slope_idx, fac_idx = branch_choice
    if not 0 <= fac_idx < len(factors):
        raise AmbiguousBranch(f"factor index {fac_idx} out of range at step {step}")
    return slope_idx, fac_idx


def augment(chain: KeyChain, branch_choice=None) -> KeyChain:
    """One augmentation step; returns a new chain.

    branch_choice is a (slope index, factor index) pair consumed only when
    the step presents more than one option in either menu: at the residual
    factors when they are several, else at the admissible slopes.  The new
    chain's branch log gains a BranchPoint exactly when it is consumed.
    """
    if chain.complete:
        raise MalformedInput("chain already complete")
    top = chain.entries[-1]
    step = len(chain.entries) - 1
    digits, line = _g_expansion(chain)
    if 0 not in line:
        raise MalformedInput("generator is divisible by a key polynomial; g is reducible")
    # the minimal segment of g's polygon has slope -gamma
    _, coeffs, fld = _residual(chain, step, digits, 1, line)
    if len(coeffs) < 2:
        raise AssertionError("minimal value attained once; chain data inconsistent")
    factors = [f for f, mult in fld.factor_monic(coeffs)]
    pick = _pick(branch_choice, step, factors, factors, "residual factors")
    phi = factors[pick[1] if pick else 0]
    slopes, slope_idx = (), 0
    if top.Q.degree * (len(phi) - 1) == chain.g.degree:
        # the chosen factor exhausts g: append g itself with value infinity
        new = (top, ChainEntry(top.position + 1, chain.g, INF, None, chain.g))
    else:
        # fix the top entry's residue data from the chosen factor
        if len(phi) == 2:
            new_field, emb, z_top = fld, fld.gen, fld.neg(phi[0])
            cand = _refine_key(chain, z_top, fld)
        else:
            cand = _jump_key(chain, phi, fld)
            new_field, emb, z_top = fld.extend_by(phi)
        slopes, cand_digits, pts = _admissible_slopes(chain, cand)
        if not slopes:
            raise AssertionError("no admissible slope for a freshly built key")
        pick = pick or _pick(branch_choice, step, factors, slopes, "admissible slopes")
        slope_idx = pick[0] if pick else 0
        if not 0 <= slope_idx < len(slopes):
            raise AmbiguousBranch(f"slope index {slope_idx} out of range at step {step}")
        t = slopes[slope_idx]
        if t.denominator != 1:
            raise RamifiedBranch(
                f"chosen branch has value increment {t}: e = 1 fails on this branch")
        gamma_new = int(t)
        new = (ChainEntry(top.position, top.Q, top.gamma, top.a, top.Qt, new_field, z_top, emb),
               _entry(chain.ctx, top.position + 1, cand, gamma_new))
    log = chain.branch_log
    if pick:
        log = log + (BranchPoint(step, tuple(factors), pick[1], tuple(slopes), slope_idx),)
    status = chain.status if slopes else "complete"
    out = KeyChain(chain.ctx, chain.g, chain.entries[:-1] + new, status, chain.mode, log)
    if not out.complete:
        out.cache()["g_expansion"] = (
            cand_digits, {j: v + j * gamma_new for j, v in pts.items()})
    return out


def _one_root(chain: KeyChain) -> bool:
    """Whether the top key is x - c with gamma >= 1, deg g >= 2 and g's value
    line least at indices 0 and 1 only: then g has exactly one root eta with
    v(eta - c) >= gamma, and v(eta - c) = gamma; `_hensel_tail` lifts eta
    and decides the depth cut from it."""
    top = chain.entries[-1]
    if top.Q.degree != 1 or top.gamma < 1 or chain.g.degree < 2:
        return False
    line = _g_expansion(chain)[1]
    m = min(line.values())
    return [j for j, v in line.items() if v == m] == [0, 1]


def _hensel_tail(chain: KeyChain, depth: int) -> KeyChain:
    """The rest of a `_one_root` chain up to `depth` keys, `augment`'s test
    of the candidate past `depth` and the depth cut, read off one lift of
    eta.  At the top key x - c of value gamma, G(y) = g(c + p^gamma y) /
    p^v0 (v0 the least of g's line) is integral with residual r0 + r1 y, so
    `hensel_root` lifts its root y from -r0/r1 with G' a unit: eta =
    c + p^gamma y.  Every step is forced: the entry's residue is y mod p, the
    next key x - (eta mod p^(gamma + 1)), its value the position of eta's
    next nonzero digit.  Where the digits run out, g at the candidate is 0
    (g is reducible) or the lift doubles.  v(g') = S = v(g'(c)) on the disc,
    which holds no other root, so the oracle seed s = c_last mod p^gamma_last
    lifts, and to eta, iff v(eta - s) > S: `build_chain`'s cut rule."""
    ctx, g = chain.ctx, chain.g
    p, fld, top = ctx.p, chain.entries[-2].res_field, chain.entries[-1]
    c, gamma = -top.Q.nums[0], top.gamma
    digits, line = _g_expansion(chain)
    v0, S = line[0], line[1] - gamma
    G = UniPoly([d[0] * p ** (j * gamma) // p ** v0 if d else 0 for j, d in enumerate(digits)])
    # eta's digits from position gamma: one per key and one past `depth`,
    # room for twice the expected zero digits, and up to position S
    n = max((depth - len(chain.entries) + 2) * (p + 1) // (p - 1), S + 1 - gamma)
    y = hensel_root(ctx, G, ResidueClass(-G.nums[0] * pow(G.nums[1], -1, p) % p, 1), n).value
    # eta = c % p^gamma + p^gamma (m + y): walk the digits of m + y, keeping
    # the open entry, its residue and the candidate key past it
    pw, m, entries, i = p ** gamma, c // p ** gamma, list(chain.entries[:-1]), 0
    rest, d = divmod(m + y, p)
    pos, Q, gam, z, key = top.position, top.Q, gamma, y % p, c % pw + d * pw
    while True:
        i, pw = i + 1, pw * p
        if i == n:
            if not _ieval(g.nums, key):
                raise MalformedInput("candidate key divides g; g is reducible")
            y = hensel_root(ctx, G, ResidueClass(y, n), 2 * n).value
            n, rest = 2 * n, (m + y) // p ** i
        rest, d = divmod(rest, p)
        if not d:
            continue
        if len(entries) + 1 >= depth:
            break
        entries.append(_entry(ctx, pos, Q, gam, fld, z, fld.gen))
        pos, Q, gam, z = pos + 1, UniPoly._raw((-key, 1), 1), gamma + i, d
        key += d * pw
    s = -Q.nums[0] % p ** gam  # the chain's oracle seed; eta = c + p^gamma y
    if gam <= S and (c + p ** gamma * y - s) % p ** (S + 1):
        raise InsufficientDepth(
            f"depth {depth} is too shallow: the prefix pins no branch root")
    if Q is not top.Q:
        top = _entry(ctx, pos, Q, gam)
    out = KeyChain(ctx, g, tuple(entries) + (top,), chain.status, chain.mode, chain.branch_log)
    _g_expansion(out)  # the one Taylor shift of g, at the last key
    return out


def build_chain(ctx: ValuedFieldCtx, g: UniPoly, branch_selector="unique",
                depth: int = 16, mode: str = FULL) -> KeyChain:
    """Drive augmentation to completion or to a prefix of `depth` entries.

    branch_selector is "unique" (every step must be forced) or a list of
    (slope index, factor index) pairs consumed by choiceful steps in order:
    each step is offered the next pair its chain's branch log has not used.
    Once g has one root in the top linear key's disc (`_one_root`), each later
    key is a digit of that root, written by `_hensel_tail` without `augment`.
    A chain stopped on a linear key of value gamma is a depth cut, raising
    InsufficientDepth, unless its oracle (`KeyChain.nu`) gives the key gamma:
    the tail decides this from its root, other chains ask the oracle.
    """
    if depth < 1:
        raise MalformedInput("depth must be >= 1")
    if mode not in (FULL, COLLAPSED):
        raise MalformedInput(f"unknown mode {mode!r}")
    chain = gauss_start(ctx, g)
    picks = list(branch_selector) if branch_selector != "unique" else []
    while not chain.complete:
        if _one_root(chain):
            chain = _hensel_tail(chain, depth)
            break
        at_depth = len(chain.entries) >= depth
        used = len(chain.branch_log)
        try:
            nxt = augment(chain, tuple(picks[used]) if used < len(picks) else None)
        except AmbiguousBranch:
            if not at_depth:
                raise
            nxt = chain  # a choice past the depth: stop here
        if at_depth and not nxt.complete:
            # depth reached and the next step only refines: a depth cut
            # unless a linear top key has the value the oracle gives it
            top = chain.entries[-1]
            try:
                pinned = top.Q.degree > 1 or chain.nu(top.Q).value == top.gamma
            except NoConvergence:
                pinned = False
            if not pinned:
                raise InsufficientDepth(
                    f"depth {depth} is too shallow: the prefix pins no branch root")
            break
        chain = nxt
    if mode == COLLAPSED:
        chain = collapse(chain)
    return chain


def collapse(chain: KeyChain) -> KeyChain:
    """Keep only the last element of every finite plateau (truncated-infinite
    plateaus and the final entry, which shares x's plateau when deg g = 1,
    are kept whole) and re-index positions."""
    keep = []
    for pl in segment(chain).plateaus:
        stars = [i for i in pl.positions if i != chain.imax_pos]
        keep.extend(stars if pl.flag in ("singleton", "truncated-infinite") else stars[-1:])
    if chain.complete:
        keep.append(chain.imax_pos)
    new_entries = []
    for newpos, old in enumerate(keep):
        ent = chain.entries[old]
        new_entries.append(replace(ent, position=newpos))
    return KeyChain(chain.ctx, chain.g, tuple(new_entries), chain.status,
                    COLLAPSED, chain.branch_log)


# ---------------------------------------------------------------------------
# Plateau and segment combinatorics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Plateau:
    q: int                # 1-based plateau index
    degree: int
    positions: tuple
    first: int            # ell_q
    flag: str             # "singleton" | "finite-multi" | "truncated-infinite"


@dataclass(frozen=True)
class Segmentation:
    plateaus: tuple
    n_plus: dict          # plateau degree -> next plateau degree
    q_of: dict            # position -> plateau index
    succ_pairs: tuple     # (i, ell, kind) with ell a position or IMAX
    imax_sources: tuple   # positions i with Q_i <_succ Q_imax

    def plateau_of(self, i: int) -> Plateau:
        return self.plateaus[self.q_of[i] - 1]

    def offset(self, i: int) -> int:
        """i's offset in its plateau: the level s(ell, i) of every successor
        pair (i, ell), since ell is i + 1 or IMAX (see `segment`)."""
        return i - self.plateau_of(i).first


def segment(chain: KeyChain) -> Segmentation:
    """Plateaus, successor pairs and final-key sources of a chain.

    Invariant: only the last plateau can be truncated-infinite (a prefix
    ends inside at most one infinite plateau), and every successor pair is
    (i, i + 1, "imm") or (i, IMAX, kind): the last key of a complete chain
    has the immediate source imax - 1, and every position of a truncated
    final plateau is a limit source of IMAX.
    """
    cache = chain.cache()
    if "segmentation" in cache:
        return cache["segmentation"]
    plateaus = []
    positions_by_degree = []
    for ent in chain.entries:
        d = ent.Q.degree
        if positions_by_degree and positions_by_degree[-1][0] == d:
            positions_by_degree[-1][1].append(ent.position)
        else:
            positions_by_degree.append((d, [ent.position]))
    q_of = {}
    for qi, (d, poss) in enumerate(positions_by_degree, start=1):
        last_block = qi == len(positions_by_degree)
        if last_block and not chain.complete:
            flag = "truncated-infinite"
        elif len(poss) == 1:
            flag = "singleton"
        else:
            flag = "finite-multi"
        plateaus.append(Plateau(qi, d, tuple(poss), poss[0], flag))
        for i in poss:
            q_of[i] = qi
    n_plus = {}
    for a, b in zip(plateaus, plateaus[1:]):
        n_plus[a.degree] = b.degree
    n_plus[plateaus[-1].degree] = chain.g.degree
    pairs = []
    star = set(chain.star_positions)
    for i in star:
        ell = i + 1
        if ell in q_of and (not chain.complete or ell != chain.imax_pos):
            pairs.append((i, ell, "imm"))
    if chain.complete:
        imax = chain.imax_pos
        pairs.append((imax - 1, IMAX, "imm"))
        sources = (imax - 1,)
    else:
        sources = plateaus[-1].positions
        pairs.extend((i, IMAX, "lim") for i in sources)
    seg = Segmentation(tuple(plateaus), n_plus, q_of, tuple(pairs), tuple(sources))
    cache["segmentation"] = seg
    return seg


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CheckResult:
    name: str
    subject: object
    passed: bool
    witness: object = None


def strongly_monic(chain: KeyChain, ell, i: int):
    """(passed, witness) for Q_ell (g at IMAX) strongly Q_i-monic: the
    Q_i-expansion is monic and its top index r attains the minimum of the
    value line.  The witness holds r, the monic flag, the line and the
    expansion's int digits.  Kept per pair in the chain's cache, which
    `validate` and the I1 relations both read: an I1 relation's full
    expansion starts from these digits."""
    memo = chain.cache().setdefault("strongly_monic", {})
    got = memo.get((ell, i))
    if got is None:
        got = memo[(ell, i)] = _strongly_monic(chain, ell, i)
    return got


def _strongly_monic(chain: KeyChain, ell, i: int):
    ql = chain.g if ell == IMAX else chain.entries[ell].Q
    ent = chain.entries[i]
    digits = _iexpand(ql.nums, ent.Q.nums)
    r = len(digits) - 1
    monic = digits[r] == [1]
    vals = chain.value_line(i - 1, digits, ent.gamma)
    passed = monic and vals.get(r) == min(vals.values())
    return passed, {"top_index": r, "monic": monic, "values": vals, "digits": digits}


def validate(chain: KeyChain):
    """Report-based checks: strong monicity along successor pairs, e = 1
    integrality, strict value increase within plateaus, the normalization
    a_i = p^gamma_i and nu(Qt_i) = 0 against the oracle."""
    ctx = chain.ctx
    seg = segment(chain)
    out = []
    for i in chain.star_positions:
        ent = chain.entries[i]
        g_ok = ent.gamma is not INF and ent.gamma.denominator == 1
        out.append(CheckResult("gamma-integral", i, g_ok, ent.gamma))
        if g_ok:
            out.append(CheckResult("a-is-p-power", i, ent.a == ctx.p ** ent.gamma, ent.a))
    if chain.mode == FULL and chain.entries:
        first = chain.entries[0]
        out.append(CheckResult("first-entry-gauss", 0,
                               first.Q == UniPoly.x() and first.gamma == 0, first.Q))
    for pl in seg.plateaus:
        gs = [chain.entries[i].gamma for i in pl.positions]
        finite = [g for g in gs if is_finite(g)]
        out.append(CheckResult("plateau-strictly-increasing", pl.q,
                               all(a < b for a, b in zip(finite, finite[1:])), tuple(gs)))
    for (i, ell, kind) in seg.succ_pairs:
        if ell == IMAX and not chain.complete:
            continue
        label = "strongly-monic" if ell != IMAX else "strongly-monic-imax"
        out.append(CheckResult(label, (ell, i), *strongly_monic(chain, ell, i)))
    # oracle-backed normalization checks when a branch descriptor exists
    try:
        for i in chain.star_positions:
            ent = chain.entries[i]
            got = chain.nu(ent.Qt).value
            out.append(CheckResult("qt-unit-value", i, got == 0, got))
            gotq = chain.nu(ent.Q).value
            out.append(CheckResult("gamma-matches-oracle", i, gotq == ent.gamma, gotq))
    except OracleUnavailable as e:
        out.append(CheckResult("oracle-available", None, False, str(e)))
    return out


def validation_passed(report) -> bool:
    return all(c.passed for c in report)
