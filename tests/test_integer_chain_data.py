"""Integer chain data against the `Fraction` route it replaced.

For an integer value gamma a chain entry holds a = p^gamma as an int and
Qt = Q / a over integer numerators; a full expansion sums its digits'
numerators into one `XPoly` and reads nu from them.  The references below
compute the same objects through `Fraction`: p^gamma as a `Fraction` power,
Q divided by it, and the expansion's terms summed as `Fraction`s and valued
with `pval`.  They must agree on the worked contexts A-D (full and
collapsed), the six deep branches of the benchmark and the chains of the
seeded generators of `test_fuzz`.
"""

import random
from fractions import Fraction
from functools import cache

import pytest

from valring.algebra import UniPoly, ValuedFieldCtx, is_finite, pval
from valring.errors import MalformedInput, MathRejection, OracleUnavailable
from valring.expandval import full_expansion
from valring.keychain import build_chain
from valring.xpoly import XPoly, monom

from conftest import qexpand_ref
from test_fuzz import generator_doc
from test_value_cascade import chains as cascade_chains


@cache
def chains():
    """The chains of the value-cascade tests (A-D full and collapsed, the
    deep branches, its own seeded sample) and those of `test_fuzz`."""
    named = list(cascade_chains())
    rng = random.Random(20261018)
    for n in range(60):
        doc = generator_doc(rng)
        try:
            chain = build_chain(ValuedFieldCtx(doc["p"]), UniPoly(doc["g"]),
                                doc["branch"], doc["depth"])
        except (MathRejection, MalformedInput):
            continue
        named.append((f"generator{n}", chain))
    return tuple(named)


NAMES = [name for name, _ in chains()]


def _chain(name):
    return dict(chains())[name]


def test_the_sample_is_wide():
    assert sum(name.startswith("generator") for name in NAMES) >= 30


@pytest.mark.parametrize("name", NAMES)
def test_entries_match_fraction_route(name):
    chain = _chain(name)
    p = chain.ctx.p
    for ent in chain.entries:
        if not is_finite(ent.gamma):
            assert ent.a is None and ent.Qt == ent.Q
            continue
        assert type(ent.gamma) is int
        assert type(ent.a) is int
        assert ent.a == Fraction(p) ** ent.gamma
        assert ent.Qt == ent.Q / Fraction(p) ** ent.gamma


def ref_cascade(chain, pending, k):
    """One cascade step on (coefficient, exponent map) pairs: every
    nonconstant coefficient expanded in Qt_k, the exponent of X_k recorded
    in a copy of its map."""
    nxt = []
    for c, mono in pending:
        if c.degree == 0:
            nxt.append((c, mono))
            continue
        ent = chain.entries[k]
        for j, d in enumerate(qexpand_ref(c, ent.Q, 1 if ent.a is None else ent.a)):
            if not d.is_zero:
                nxt.append((d, {**mono, k: j}))
    return nxt


def ref_terms(chain, exp, f):
    """{monomial: Fraction} of the expansion by the Fraction route: the
    cascade at the anchor and the appearing positions, exponent maps made
    canonical by `monom`, constants summed as Fractions."""
    pending = [(f, {})]
    for k in sorted(set(exp.index_tuple) | {exp.anchor}, reverse=True):
        pending = ref_cascade(chain, pending, k)
    terms = {}
    for c, mono in pending:
        m = monom(mono)
        terms[m] = terms.get(m, Fraction(0)) + c.coeff(0)
    return {m: c for m, c in terms.items() if c}


@pytest.mark.parametrize("name", NAMES)
def test_full_expansions_match_fraction_route(name):
    chain = _chain(name)
    rng = random.Random(name)
    polys = [chain.g] + [ent.Qt for ent in chain.entries[1:] if is_finite(ent.gamma)]
    polys += [UniPoly([Fraction(rng.randrange(-999, 1000), rng.randrange(1, 9))
                       for _ in range(chain.g.degree + 1)]) for _ in range(3)]
    checked = 0
    for i in chain.star_positions:
        for f in polys:
            try:
                exp = full_expansion(chain, i, f)
            except (MathRejection, OracleUnavailable):
                continue
            ref = ref_terms(chain, exp, f)
            assert exp.poly == XPoly(ref), (name, i, f)
            assert exp.poly == XPoly({m: c for c, m in exp.terms})
            assert dict((m, c) for c, m in exp.terms) == ref
            assert exp.nu_value == min(pval(chain.ctx, c) for c in ref.values())
            assert exp.nu_value == min(pval(chain.ctx, c) for c, _ in exp.terms)
            checked += 1
    assert checked
