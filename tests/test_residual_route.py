"""The integer residual route against the `UniPoly` route it replaced.

`KeyChain.resval` gives (value, residue, field) of a polynomial from the
chain's entries, and `residual_poly` the residual polynomial along a segment
of a Newton polygon.  The references below compute both as they ran on
`UniPoly` digits: resval recursing on the Qt_k-expansion
(`conftest.qexpand_ref` with scale a_k) and summing the residues of the
minimal digits times z_k^j, and each residual coefficient as the resval
residue of the digit scaled by a power of p to value 0.  They must agree on the worked chains A-D, the six
deep branches of the benchmark, all of these collapsed, and seeded random
generators, for random polynomials below the next plateau degree.
"""

import inspect
import random
from fractions import Fraction
from functools import cache

import pytest

from valring.algebra import INF, UniPoly, _embedded, _iexpand, _intval, is_finite
from valring.errors import MalformedInput, RamifiedBranch
from valring.keychain import collapse, newton_polygon, residual_poly, segment

from conftest import qexpand_ref
from test_value_cascade import chains as cascade_chains
from test_value_cascade import ref_value_below

# -- the reference: the residual route on UniPoly digits ---------------------------


def ref_resval(chain, k, f):
    if f.is_zero:
        raise ValueError("resval of zero")
    if k < 0 or f.degree == 0:
        p = chain.ctx.p
        n, d = f.nums[0], f.den
        vn, vd = _intval(p, n), _intval(p, d)
        fp = chain.ctx.residue_field
        return vn - vd, fp.from_int(n // p ** vn * pow(d // p ** vd, -1, p)), fp
    ent = chain.entries[k]
    if ent.z is None or ent.res_field is None:
        raise AssertionError(f"residue data missing at position {k}")
    fld = ent.res_field
    pairs = []
    best = INF
    for j, fj in enumerate(qexpand_ref(f, ent.Q, 1 if ent.a is None else ent.a)):
        if fj.is_zero:
            continue
        v, r, sub = ref_resval(chain, k - 1, fj)
        pairs.append((j, v, r, sub))
        if v < best:
            best = v
    res = fld.zero
    for j, v, r, sub in pairs:
        if v != best:
            continue
        rbig = _embedded(sub, fld, ent.emb_prev, r) if sub != fld else r
        res = fld.add(res, fld.mul(rbig, fld.pow(ent.z, j)))
    if fld.is_zero(res):
        raise AssertionError("vanishing residue: evaluator used outside its domain")
    return best, res, fld


def ref_residual_poly(chain, i, f, slope):
    t = -Fraction(slope)
    if t.denominator != 1:
        raise RamifiedBranch(f"fractional slope {slope}")
    t = int(t)
    ent = chain.entries[i]
    digits = _iexpand(f.nums, ent.Q.nums)
    line = {j: ref_value_below(chain, i - 1, UniPoly(d)) - _intval(chain.ctx.p, f.den) + t * j
            for j, d in enumerate(digits) if d}
    m = min(line.values())
    on_line = [j for j, v in line.items() if v == m]
    fld = chain.ctx.residue_field if i == 0 else chain.entries[i - 1].res_field
    p = chain.ctx.p
    coeffs = []
    for j in range(min(on_line), max(on_line) + 1):
        if line.get(j) != m:
            coeffs.append(fld.zero)
            continue
        e = t * j - m
        fj = UniPoly._make([c * p ** max(e, 0) for c in digits[j]], f.den * p ** max(-e, 0))
        v, r, sub = ref_resval(chain, i - 1, fj)
        assert v == 0
        if sub != fld:
            r = _embedded(sub, fld, chain.entries[i - 1].emb_prev, r)
        coeffs.append(r)
    return tuple(coeffs), fld


def lib_resval(chain, k, f):
    """The library's resval of f: on f's numerators over its denominator.
    The (k, f) signature of the UniPoly route is accepted too, so this file
    also runs against it."""
    if len(inspect.signature(chain.resval).parameters) == 2:
        return chain.resval(k, f)
    return chain.resval(k, f.nums, f.den)


def outcome(fn, *args):
    try:
        return fn(*args)
    except (AssertionError, MalformedInput, RamifiedBranch) as e:
        return type(e).__name__


# -- the chains ----------------------------------------------------------------------


@cache
def chains():
    """The value-cascade chains (A-D full and collapsed, the deep branches,
    seeded generators) and the deep branches collapsed."""
    named = list(cascade_chains())
    named += [(f"{name}-collapsed", collapse(chain))
              for name, chain in cascade_chains() if name.startswith("deep")]
    return tuple(named)


NAMES = [name for name, _ in chains()]


def _chain(name):
    return dict(chains())[name]


def _polys(rng, degree, n=6):
    """n random polynomials of degree below `degree`, some with rational
    coefficients."""
    out = []
    for s in range(n):
        deg = rng.randrange(degree)
        den = 1 if s % 2 else rng.choice((1, 2, 3, 4, 9, 25, 12))
        out.append(UniPoly([Fraction(rng.randrange(-999, 1000), den) for _ in range(deg)]
                           + [Fraction(rng.randrange(1, 1000), den)]))
    return out


def test_the_sample_covers_collapsed_deep_branches():
    assert sum(name.startswith("deep") and name.endswith("collapsed") for name in NAMES) == 6


@pytest.mark.parametrize("name", NAMES)
def test_resval_matches_unipoly_route(name):
    chain = _chain(name)
    seg = segment(chain)
    rng = random.Random(name)
    checked = 0
    for k, ent in enumerate(chain.entries):
        if ent.z is None:
            continue
        below = seg.n_plus[ent.Q.degree]
        for f in _polys(rng, below, 4 * below) + [ent.Q, ent.Qt]:
            got, want = outcome(lib_resval, chain, k, f), outcome(ref_resval, chain, k, f)
            assert got == want, (name, k, f)
            checked += type(want) is tuple
    for f in _polys(rng, 1):
        assert lib_resval(chain, -1, f) == ref_resval(chain, -1, f)
    # a chain whose first factor exhausts g fixes no residue data
    assert checked or all(ent.z is None for ent in chain.entries)


@pytest.mark.parametrize("name", NAMES)
def test_residual_poly_matches_unipoly_route(name):
    chain = _chain(name)
    rng = random.Random(name)
    checked = 0
    for i, ent in enumerate(chain.entries):
        if not is_finite(ent.gamma) or i and chain.entries[i - 1].res_field is None:
            continue
        for f in [chain.g] + _polys(rng, chain.g.degree + 1, 3):
            poly = newton_polygon(chain, i, f)
            digits = qexpand_ref(f, ent.Q)
            assert dict(poly.points) == {
                j: ref_value_below(chain, i - 1, fj)
                for j, fj in enumerate(digits) if not fj.is_zero}
            for s in poly.segments:
                got = outcome(residual_poly, chain, i, f, s.slope)
                want = outcome(ref_residual_poly, chain, i, f, s.slope)
                assert got == want, (name, i, f, s.slope)
                checked += type(want) is tuple
    assert checked
