"""The normalized relation data of a chain: scalars b, relation bodies Q,
the ideals I1 and I2, within-plateau relations, and redundancy cofactors
along a truncated plateau.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .algebra import _intval, _new, _set, pval
from .errors import MalformedInput, NotInIdeal
from .expandval import full_expansion
from .keychain import IMAX, KeyChain, segment, strongly_monic
from .xpoly import XPoly, _mul_into, divmod_in_var, mu0


@dataclass(frozen=True)
class RelationGen:
    kind: str             # "I1" | "I2"
    target: object        # position or IMAX
    source: int
    b: Fraction
    Q_poly: XPoly         # integral, mu0 = 0
    level: int
    relation_poly: XPoly | None  # b*X_target - Q_poly for I1, None for I2

    @property
    def h(self) -> Fraction:
        """For I2 generators: the scalar with evaluation = h * g."""
        if self.kind != "I2":
            raise MalformedInput("h is defined for I2 generators only")
        return self.b


def relation(chain: KeyChain, ell, i: int) -> RelationGen:
    """The relation generator attached to a successor pair (ell, i).

    For ell in I*, b is the inverse of the coefficient of the pure power
    Qt_i^r in the full i-th expansion of Qt_ell (the term that strong
    monicity guarantees attains the minimum); for ell = i_max,
    b = p^(-nu_i(g)).  Memoized in the chain's cache.
    """
    memo = chain.cache().setdefault("relations", {})
    gen = memo.get((ell, i))
    if gen is None:
        gen = memo[(ell, i)] = _relation(chain, ell, i)
    return gen


def _relation(chain: KeyChain, ell, i: int) -> RelationGen:
    seg = segment(chain)
    p = chain.ctx.p
    if ell == chain.imax_pos and chain.complete:
        ell = IMAX
    if ell == IMAX:
        if i not in seg.imax_sources:
            raise MalformedInput(f"position {i} is not a successor of the last key")
        exp = full_expansion(chain, i, chain.g)
        nu_g = exp.nu_value
        nums, den = exp.poly.nums, exp.poly.den
        # b = p^(-nu_g) folds into the body's denominator (or numerators)
        if nu_g >= 0:
            b = Fraction(1, p ** nu_g)
            qpoly = XPoly._make(nums, den * p ** nu_g)
        else:
            b = Fraction(p ** -nu_g)
            qpoly = XPoly._make({m: c * b.numerator for m, c in nums.items()}, den)
        kind, rel = "I2", None
    else:
        if i not in seg.q_of or ell != i + 1 or ell not in seg.q_of:
            raise MalformedInput(f"({ell}, {i}) is not a successor pair")
        passed, witness = strongly_monic(chain, ell, i)
        if not passed:
            raise MalformedInput(f"Q_{ell} is not strongly Q_{i}-monic")
        # Qt_ell has Q_ell's numerators: its first cascade step reads the
        # Q_i-expansion that strong monicity made
        exp = full_expansion(chain, i, chain.entries[ell].Qt, witness["digits"])
        r = chain.entries[ell].Q.degree // chain.entries[i].Q.degree
        # Qt_ell = (a_i^r / a_ell) Qt_i^r + lower terms, both keys monic, so
        # the pure power's numerator n1 over exp's den is positive: b = den/n1
        nums, den = exp.poly.nums, exp.poly.den
        n1 = nums.get(((i, r),), 0)
        if n1 <= 0:
            raise AssertionError("pure power term missing despite strong monicity")
        if _intval(p, n1) - _intval(p, den) != exp.nu_value:
            raise AssertionError("pure power term does not attain the minimum")
        b = Fraction(den, n1)
        qpoly = XPoly._make(nums, n1)
        # exp.poly is canonical, so gcd(n1, den, nums) = 1: rel is too
        rel = XPoly._raw({((ell, 1),): den, **{m: -c for m, c in nums.items()}}, n1)
        kind = "I1"
    if mu0(chain.ctx, qpoly) != 0:
        raise AssertionError("relation body fails mu0 = 0")
    # built past the frozen __init__, as `keychain._entry` builds an entry
    gen = _new(RelationGen)
    _set(gen, "__dict__", {"kind": kind, "target": ell, "source": i, "b": b,
                           "Q_poly": qpoly, "level": seg.offset(i), "relation_poly": rel})
    return gen


@dataclass(frozen=True)
class GeneratorSet:
    i1: tuple
    i2: tuple

    def __post_init__(self):
        # the I1 relations by target and the I2 bodies by source, indexed once
        by_target = {}
        for g in self.i1:
            by_target.setdefault(g.target, []).append(g)
        _set(self, "_i1_index", by_target)
        _set(self, "_i2_index", {g.source: g for g in self.i2})

    def i1_by_target(self, ell: int):
        hits = self._i1_index.get(ell, ())
        if len(hits) != 1:
            raise MalformedInput(f"expected one relation with target {ell}, got {len(hits)}")
        return hits[0]

    def i2_by_source(self, i: int):
        return self._i2_index[i]

    def combine(self, parts) -> XPoly:
        """sum cofactor * relation_poly over (I1 target, cofactor) pairs: the
        re-expansion of every trace and certificate, its products summed
        over one common denominator."""
        prods = [(cof, self.i1_by_target(tgt).relation_poly) for tgt, cof in parts]
        den = lcm(*(c.den * r.den for c, r in prods))
        acc = {}
        for c, r in prods:
            _mul_into(acc, c.nums, r.nums, den // (c.den * r.den))
        return XPoly._make(acc, den)


def ideal_generators(chain: KeyChain) -> GeneratorSet:
    """I1 over the successor pairs inside I*, I2 over every successor of the
    last key (all members of a truncated final plateau)."""
    cache = chain.cache()
    if "generators" in cache:
        return cache["generators"]
    seg = segment(chain)
    i1 = []
    i2 = []
    for (i, ell, kind) in seg.succ_pairs:
        if ell == IMAX:
            i2.append(relation(chain, IMAX, i))
        else:
            i1.append(relation(chain, ell, i))
    out = GeneratorSet(tuple(i1), tuple(i2))
    cache["generators"] = out
    return out


@dataclass(frozen=True)
class PlateauRel:
    position: int
    b: Fraction
    A: XPoly


def plateau_relation(chain: KeyChain, i: int) -> PlateauRel:
    """Within-plateau relation b_{i+1,i} Qt_{i+1} = Qt_i + A_i with A_i
    supported below the plateau start."""
    seg = segment(chain)
    if i + 1 not in seg.q_of or seg.q_of[i] != seg.q_of[i + 1]:
        raise MalformedInput(f"positions {i}, {i + 1} are not in one plateau")
    gen = relation(chain, i + 1, i)
    a_poly = gen.Q_poly - XPoly.var(i)
    first = seg.plateau_of(i).first
    if any(k >= first for k in a_poly.variables()):
        raise AssertionError("correction term reaches into the plateau")
    return PlateauRel(i, gen.b, a_poly)


def i1_decompose(chain: KeyChain, d: XPoly, gens: GeneratorSet):
    """Write an element of I1 K[X] as an explicit cofactor combination by
    eliminating the highest variable with its (linear) relation, top down.

    Returns {target: cofactor}; raises if a nonzero remainder survives in
    K[X_0], which certifies the input was not in I1 K[X].  Each relation
    b X_top - Q is linear in X_top with constant leading coefficient b (Q
    lives below X_top), so one division removes X_top.
    """
    cof = {}
    cur = d
    while (top := max(cur.variables(), default=0)) != 0:
        cof[top], cur = divmod_in_var(cur, gens.i1_by_target(top).relation_poly, top)
    if not cur.is_zero:
        raise NotInIdeal("nonzero residue in K[X_0] after eliminating all relations")
    return cof


def redundancy_cofactor(chain: KeyChain, i: int, i2: int):
    """Certificate that the I2 generator at source i is redundant given the
    one at source i2 > i: Q_{imax,i} = c0 Q_{imax,i2} + sum cof * I1-gens.

    Returns (c0, {target: cofactor}); verified by exact expansion.
    """
    seg = segment(chain)
    final = seg.plateaus[-1]
    if final.flag != "truncated-infinite":
        raise MalformedInput("redundancy lives on a truncated-infinite plateau")
    if not (i in final.positions and i2 in final.positions and i < i2):
        raise MalformedInput("need plateau positions i < i'")
    gens = ideal_generators(chain)
    gi, gi2 = gens.i2_by_source(i), gens.i2_by_source(i2)
    q, q2 = gi.Q_poly, gi2.Q_poly
    c0 = gi.b / gi2.b
    if pval(chain.ctx, c0) < 0:
        raise AssertionError("redundancy scalar not integral")
    # d = Q_{imax,i} - c0 Q_{imax,i'}, both bodies' numerators over one den
    m = c0.denominator * q2.den
    den = lcm(q.den, m)
    s, s2 = den // q.den, den // m * c0.numerator
    nums = {mon: c * s for mon, c in q.nums.items()}
    for mon, c in q2.nums.items():
        nums[mon] = nums.get(mon, 0) - c * s2
    d = XPoly._make(nums, den)
    cof = i1_decompose(chain, d, gens)
    # d is exactly Q_{imax,i} - c0 Q_{imax,i'}: the certificate re-expands
    # to Q_{imax,i} exactly when its I1 part re-expands to d
    if gens.combine(cof.items()) != d:
        raise AssertionError("redundancy certificate failed to re-expand")
    return c0, cof
