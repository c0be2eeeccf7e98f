"""Evaluation maps, relation checking, completeness probes, integral
representations, and ideal-membership certificates.

A membership certificate realizes F = (Q_{imax,i})_s * R_s + sum(c * I1-gen)
with every piece explicit; the checker re-expands the combination and
confirms syntactic equality, reporting any non-integral cofactors instead
of failing.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import INF, UniPoly, _intval
from .errors import InsufficientDepth, MalformedInput, NotInIdeal
from .expandval import full_expansion, truncate
from .keychain import IMAX, KeyChain, segment
from .presentrel import GeneratorSet, i1_decompose, ideal_generators
from .rewrite import _check_positions, in_x0, is_neat, total_s_building
from .xpoly import XPoly, mu0


def eval_e(chain: KeyChain, F: XPoly) -> UniPoly:
    """The evaluation X_i -> Qt_i(x), exactly in Q[x]."""
    _check_positions(chain, F)
    return chain.evaluate(F)


def eval_eta(chain: KeyChain, F: XPoly):
    """(is_zero, value): zero means g divides the evaluation; otherwise the
    value of the image under the branch's valuation."""
    h = eval_e(chain, F)
    rem = h % chain.g
    if rem.is_zero:
        return True, INF
    return False, chain.nu(rem).value


@dataclass(frozen=True)
class RelationCheck:
    kind: str
    target: object
    source: int
    passed: bool
    details: dict


def check_relations(chain: KeyChain):
    """Assert the defining identities of every generator: kernel membership
    for I1, the h*g identity for I2, mu0 = 0, positive b-values inside I*,
    neatness flags, and strictly decreasing v(b) along the final plateau."""
    gens = ideal_generators(chain)
    ctx = chain.ctx
    p = ctx.p
    out = []
    for gen in gens.i1:
        b, q = gen.b, gen.Q_poly
        details = {
            "kernel": eval_e(chain, gen.relation_poly).is_zero,
            "mu0_zero": mu0(ctx, q) == 0,
            "b_positive": _intval(p, b.numerator) > _intval(p, b.denominator),
            "q_neat": is_neat(chain, q).neat,
        }
        out.append(RelationCheck("I1", gen.target, gen.source, all(details.values()), details))
    prev = None
    for gen in sorted(gens.i2, key=lambda g: g.source):
        b, q = gen.b, gen.Q_poly
        vb = _intval(p, b.numerator) - _intval(p, b.denominator)
        details = {
            "h_times_g": eval_e(chain, q) == chain.g * gen.h,
            "mu0_zero": mu0(ctx, q) == 0,
            "q_neat": is_neat(chain, q).neat,
            "v_b": vb,
            "v_b_decreasing": prev is None or vb < prev,
        }
        prev = vb
        ok = all(details[k] for k in ("h_times_g", "mu0_zero", "q_neat", "v_b_decreasing"))
        out.append(RelationCheck("I2", IMAX, gen.source, ok, details))
    return out


def completeness_probe(chain: KeyChain, f: UniPoly, vals=None):
    """Position of a chain element q with deg q <= deg f whose truncation
    computes nu(f), or an insufficient-depth report on shallow prefixes.
    Constants are trivially witnessed by the first entry.  vals, when
    given, is `truncations(chain, f)`, read instead of computed again."""
    if f.is_zero:
        raise MalformedInput("probe of the zero polynomial")
    if f.degree == 0:
        return 0
    target = chain.nu(f).value
    for i in chain.star_positions:
        if chain.entries[i].Q.degree > f.degree:
            continue
        if (truncate(chain, i, f) if vals is None else vals[i]) == target:
            return i
    if chain.complete and chain.g.degree <= f.degree:
        # nu_g(f) = nu(f mod g) = nu(f): the last key always witnesses here
        return chain.imax_pos
    if chain.complete:
        raise AssertionError("complete chain failed the completeness probe")
    raise InsufficientDepth(
        f"no witness of degree <= {f.degree} in a depth-{len(chain.entries)} prefix")


def integral_rep(chain: KeyChain, h: UniPoly) -> XPoly:
    """Representation of an integral element h(eta) as a polynomial with
    coefficients in O_K in the normalized generators."""
    if h.is_zero:
        return XPoly.zero()
    val = chain.nu(h).value
    if val < 0:
        raise MalformedInput(f"h has negative value {val}: not integral")
    if h.degree >= chain.g.degree:
        raise MalformedInput("need deg h < deg g")
    if h.degree == 0:
        return XPoly.const(h.coeffs[0])
    for i in chain.star_positions:
        if truncate(chain, i, h) == val:
            exp = full_expansion(chain, i, h)
            out = exp.poly
            if not out.is_integral:
                raise AssertionError("expansion at an exact position not integral")
            return out
    raise InsufficientDepth("no position computes nu(h) in this prefix")


@dataclass(frozen=True)
class Certificate:
    target: XPoly
    anchor: int               # final-plateau source of the I2 reference
    level: int
    i2_poly: XPoly            # (Q_{imax, anchor})_s
    i2_cofactor: XPoly        # R_s
    i1_parts: tuple           # ((target, cofactor), ...)
    denominators: tuple       # ((label, lcm), ...) empty when fully integral

    def re_expand(self, gens: GeneratorSet) -> XPoly:
        return self.i2_poly * self.i2_cofactor + gens.combine(self.i1_parts)


def _membership_anchor(chain: KeyChain, s: int) -> int:
    seg = segment(chain)
    if chain.complete:
        return chain.imax_pos - 1
    final = seg.plateaus[-1]
    anchor = final.first + s
    if anchor not in final.positions:
        raise InsufficientDepth(
            f"level {s} exceeds the available offsets of the truncated plateau")
    return anchor


def membership(chain: KeyChain, F: XPoly) -> Certificate:
    """Certificate that F lies in I1 + I2.

    F lies in the ideal exactly when g divides its image e(F) under
    X_i -> Qt_i.  Every I1 relation maps to 0, so e(F), written in
    X_0 = Qt_0, is the total reduction of the total s-building of F, and the
    I2 cofactor R is its exact quotient by h_i g(X_0).  The certificate
    takes the total s-buildings of R and of the I2 body, then explicit I1
    cofactors for the difference by top-down elimination."""
    gens = ideal_generators(chain)
    ctx = chain.ctx
    if not F.is_zero and mu0(ctx, F) < 0:
        raise MalformedInput("membership requires mu0(F) >= 0")
    image = eval_e(chain, F)
    if not (image % chain.g).is_zero:
        raise NotInIdeal(f"F evaluates to a nonzero element of value {chain.nu(image).value}")
    seg = segment(chain)
    s = max((seg.offset(k) for k in F.variables()), default=0)
    anchor = _membership_anchor(chain, s)
    s = max(s, seg.offset(anchor))
    gen2 = gens.i2_by_source(anchor)
    gi = in_x0(chain, chain.g) * gen2.h  # h_i g, in the coordinate X_0 = Qt_0
    r_poly = XPoly.from_unipoly(in_x0(chain, image) // gi, 0)
    r_s = (total_s_building(chain, r_poly, s, through=anchor)
           if not r_poly.is_zero else r_poly)
    q_s = total_s_building(chain, gen2.Q_poly, s, through=anchor)
    d = F - q_s * r_s
    cof = i1_decompose(chain, d, gens) if not d.is_zero else {}
    denominators = []
    if not r_s.is_integral:
        denominators.append(("i2-cofactor", r_s.den))
    parts = []
    for tgt in sorted(cof):
        c = cof[tgt]
        parts.append((tgt, c))
        if not c.is_integral:
            denominators.append((f"i1-cofactor-{tgt}", c.den))
    cert = Certificate(F, anchor, s, q_s, r_s, tuple(parts), tuple(denominators))
    if cert.re_expand(gens) != F:
        raise AssertionError("certificate failed to re-expand to its target")
    return cert
