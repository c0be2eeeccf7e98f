"""The verifier's integer routes against the routes they replaced.

`XPoly.eval_unipoly` sums its terms on int lists over one denominator, the
canonical term order fills one exponent list, `is_neat` groups variables by
plateau through `q_of` and bounds exponents on ints, `_check_positions`
tests each monomial's ends, and the relation scalars come from the
expansion's numerators.  The references below are those routes as they ran
before: a `UniPoly` per term and per addition, `monom_degree_in` per
position, plateau-tuple membership and a `Fraction` exponent bound, a set of
star positions, and b, Q and b*X_ell - Q through `Fraction`.  They must
agree on the worked contexts A-D (full and collapsed), the six deep branches
of the benchmark and a seeded sample of random generators.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from valring.algebra import UniPoly, pval
from valring.errors import MalformedInput, MathRejection
from valring.expandval import full_expansion
from valring.keychain import IMAX, segment
from valring.presentrel import ideal_generators
from valring.rewrite import NeatReport, _check_positions, is_neat
from valring.xpoly import XPoly, _monom_key, extend_powers, monom, monom_degree_in

from test_value_cascade import chains

# -- the references ----------------------------------------------------------------


def ref_eval_unipoly(F, images, powers=None):
    """The term-by-term evaluation: one UniPoly per term and per addition."""
    if powers is None:
        powers = {}
    total = UniPoly()
    for m, c in F.nums.items():
        term = UniPoly._raw((c,), 1)
        for k, v in m:
            pk = powers.get(k)
            if pk is None:
                pk = powers[k] = [UniPoly._raw((1,), 1), images[k]]
            term = term * extend_powers(pk, v)[v]
        total = total + term
    return total / F.den


def ref_monom_key(m):
    if not m:
        return ()
    return tuple(monom_degree_in(m, k) for k in range(m[-1][0] + 1))


def ref_check_positions(chain, F):
    star = set(chain.star_positions)
    for k in F.variables():
        if k not in star:
            raise MalformedInput(f"variable X_{k} out of range for this chain")


def ref_is_neat(chain, F):
    ref_check_positions(chain, F)
    seg = segment(chain)
    vars_ = F.variables()
    note = None
    level = 0
    for pl in seg.plateaus:
        hits = [k for k in vars_ if k in pl.positions]
        if len(hits) > 1:
            if pl.flag == "truncated-infinite":
                return NeatReport(False, 0, "two variables in an infinite plateau")
            note = "neat under collapsed indexing"
        if hits and pl.flag == "truncated-infinite":
            level = hits[0] - pl.first
    if vars_:
        top = max(vars_)
        for k in vars_:
            if k == top:
                continue
            dk = chain.entries[k].Q.degree
            if not F.degree_in(k) < Fraction(seg.n_plus[dk], dk):
                return NeatReport(False, 0, f"exponent bound fails at X_{k}")
    return NeatReport(True, level, note)


def outcome(fn, *args):
    try:
        return fn(*args)
    except MalformedInput as e:
        return "MalformedInput", str(e)


# -- strategies ----------------------------------------------------------------------

POSITIONS = (0, 1, 2, 3)
fractions = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 9))
monoms = st.dictionaries(st.sampled_from(POSITIONS), st.integers(0, 4), max_size=4).map(monom)
xpolys = st.dictionaries(monoms, fractions, max_size=6).map(XPoly)
images_st = st.fixed_dictionaries(
    {k: st.lists(fractions, min_size=1, max_size=3).filter(lambda c: c[-1] != 0).map(UniPoly)
     for k in POSITIONS})


# -- evaluation and term order -------------------------------------------------------

@settings(max_examples=200, deadline=None, derandomize=True)
@given(xpolys, xpolys, images_st, st.integers(0, 6))
@example(XPoly.zero(), XPoly.const(Fraction(-3, 4)), {k: UniPoly((1, 1)) for k in POSITIONS}, 0)
@example(XPoly({((0, 2), (3, 1)): Fraction(5, 6)}), XPoly.const(7),
         {k: UniPoly((Fraction(1, 2), 0, Fraction(3, 4))) for k in POSITIONS}, 5)
def test_eval_unipoly_matches_term_sum(F, G, images, prefill):
    assert F.eval_unipoly(images) == ref_eval_unipoly(F, images)
    # one powers dict shared across calls, pre-filled past what F needs
    powers = {k: extend_powers([UniPoly._raw((1,), 1), images[k]], prefill) for k in (0, 2)}
    ref_powers = {}
    for H in (F, G, F + G, F * G):
        got = H.eval_unipoly(images, powers)
        assert got == ref_eval_unipoly(H, images, ref_powers)
        assert got.den > 0 and (not got.nums or got.nums[-1])
    for k, pk in powers.items():
        assert all(pk[v] == images[k] ** v for v in range(len(pk)))


def test_eval_unipoly_zero_and_constants():
    images = {0: UniPoly((1, 2))}
    assert XPoly.zero().eval_unipoly(images) == UniPoly()
    assert XPoly.const(Fraction(-5, 3)).eval_unipoly(images) == UniPoly((Fraction(-5, 3),))
    assert XPoly.const(4).eval_unipoly({}) == UniPoly((4,))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(monoms)
@example(())
@example(((3, 2),))
@example(((-2, 1), (1, 3)))  # a stray negative position takes no place in the key
@example(((-1, 1),))
def test_monom_key_matches_degree_tuple(m):
    assert _monom_key(m) == ref_monom_key(m)


# -- neatness and positions on the chains --------------------------------------------

NAMED = chains()
CHAIN_INDEX = st.integers(0, 10 ** 6)


@st.composite
def chain_xpolys(draw, spill=0):
    """(chain, XPoly) with variables among the chain's star positions, up to
    `spill` positions past them, and exponents up to 3."""
    _, chain = NAMED[draw(CHAIN_INDEX) % len(NAMED)]
    n = len(chain.star_positions)
    pos = st.integers(0, n - 1 + spill)
    terms = draw(st.dictionaries(
        st.dictionaries(pos, st.integers(0, 3), max_size=3).map(monom),
        fractions, max_size=5))
    return chain, XPoly(terms)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(chain_xpolys())
def test_is_neat_matches_reference(cf):
    chain, F = cf
    assert is_neat(chain, F) == ref_is_neat(chain, F)


@pytest.mark.parametrize("name, chain", NAMED, ids=[name for name, _ in NAMED])
def test_is_neat_on_plateau_pairs(name, chain):
    """Two variables in each plateau, single variables at every exponent up
    to the bound and one past it, on every chain."""
    seg = segment(chain)
    star = chain.star_positions
    polys = [XPoly.var(i) * XPoly.var(j) for i in star for j in star if i < j]
    for k in star:
        dk = chain.entries[k].Q.degree
        e = -(-seg.n_plus[dk] // dk)  # the least exponent past the bound
        polys += [XPoly.var(k) ** e * XPoly.var(star[-1]) + 1,
                  XPoly.var(k) ** (e - 1) * XPoly.var(star[-1]) if e > 1 else XPoly.var(k)]
    for F in polys:
        assert is_neat(chain, F) == ref_is_neat(chain, F), (name, F)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(chain_xpolys(spill=4))
def test_check_positions_names_the_smallest_stray(cf):
    chain, F = cf
    assert outcome(_check_positions, chain, F) == outcome(ref_check_positions, chain, F)


def test_check_positions_stray_order():
    _, chain = NAMED[0]
    n = len(chain.star_positions)
    F = XPoly({((n + 4, 1),): 1, ((n, 1), (n + 2, 1)): 1})
    with pytest.raises(MalformedInput, match=f"variable X_{n} out of range"):
        _check_positions(chain, F)


# -- relation scalars ------------------------------------------------------------------

def ref_relation(chain, ell, i):
    """(b, Q_poly, relation_poly) through Fraction: b = 1/b1 for the pure
    power's coefficient b1, b = p^-nu_i(g) at IMAX, Q = exp * b."""
    if ell == IMAX:
        exp = full_expansion(chain, i, chain.g)
        b = Fraction(chain.ctx.p) ** -exp.nu_value
        return b, exp.poly * b, None
    exp = full_expansion(chain, i, chain.entries[ell].Qt)
    r = chain.entries[ell].Q.degree // chain.entries[i].Q.degree
    b1 = exp.poly.terms[((i, r),)]
    assert pval(chain.ctx, b1) == exp.nu_value
    b = 1 / b1
    Q = XPoly({m: c * b for m, c in exp.poly.terms.items()})
    return b, Q, XPoly({((ell, 1),): b}) - Q


@pytest.mark.parametrize("name, chain", NAMED, ids=[name for name, _ in NAMED])
def test_relations_match_fraction_route(name, chain):
    try:
        gens = ideal_generators(chain)
    except MathRejection:
        pytest.skip("no generators on this chain")
    for gen in gens.i1 + gens.i2:
        b, Q, rel = ref_relation(chain, gen.target, gen.source)
        assert type(gen.b) is Fraction and gen.b == b
        assert gen.Q_poly == Q
        assert gen.relation_poly == rel
