"""The theorem of the index on complete chains: the keys generate O_L.

A complete chain means g is irreducible over Q_p, and with e = 1 the ring
O_L is unramified over Z_p, so v_p(disc g) = 2 v_p[O_L : Z_p[eta]].  Take
the last key of each degree, d_0 = 1 < d_1 < ... < d_r, and write every
m = 0 .. deg g - 1 in mixed radix, m = sum_k j_k d_k with j_k < d_(k+1) / d_k
(d_(r+1) = deg g).  The monomial prod_k Qt_k^(j_k) has degree m, value 0
and leading coefficient p^-(sum_k j_k gamma_k), so these monomials span a
lattice triangular over the power basis whose index over Z_p[eta] is
p^(sum_m sum_k j_k gamma_k).  It is O_L exactly when twice that exponent is
v_p(disc g), with the discriminant from `resultant(g, g')`.

The identity is checked on the worked contexts A, B and D, on the distinct
complete chains of the benchmark's construct pool, on a seeded sample of
generators drawn as in `test_fuzz` and on the collapsed chains of all of
them; v_p(disc g) is cross-checked against sympy's `discriminant` when
sympy is installed.  Taking the first key of each degree instead must break
the identity somewhere, so the check can fail.  This test only reads
`bench/`.
"""

import importlib.util
import json
import random
import sys
from functools import cache
from pathlib import Path

import pytest

from valring.algebra import UniPoly, ValuedFieldCtx, pval, resultant
from valring.cli import JobConfig
from valring.errors import MalformedInput, MathRejection
from valring.keychain import build_chain, collapse

from conftest import CTX2, GA, GB, GD
from test_fuzz import generator_doc

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load_jobs():
    spec = importlib.util.spec_from_file_location("_index_jobs", BENCH / "jobs.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def last(positions):
    return positions[-1]


def first(positions):
    return positions[0]


def basis(chain, pick=last):
    """The monomials prod_k Qt_k^(j_k) for m = 0 .. deg g - 1, over the key
    `pick` takes from the positions of each degree, as UniPolys."""
    by_degree = {}
    for i in chain.star_positions:
        by_degree.setdefault(chain.entries[i].Q.degree, []).append(i)
    keys = [pick(by_degree[d]) for d in sorted(by_degree)]
    out = []
    for m in range(chain.g.degree):
        mono, rest = UniPoly((1,)), m
        for k in reversed(keys):
            j, rest = divmod(rest, chain.entries[k].Q.degree)
            mono = mono * chain.entries[k].Qt ** j
        out.append(mono)
    return out


def basis_index(chain, pick=last) -> int:
    """v_p of the index of the monomials' lattice over Z_p[eta]: minus the
    sum of v_p of their leading coefficients, each of degree m."""
    total = 0
    for m, mono in enumerate(basis(chain, pick)):
        assert mono.degree == m
        total -= pval(chain.ctx, mono.coeff(m))
    return total


def v_disc(chain) -> int:
    return pval(chain.ctx, resultant(chain.g, chain.g.derivative()))


# -- the chains ------------------------------------------------------------------------

def worked():
    return [(name, build_chain(CTX2, g)) for name, g in (("A", GA), ("B", GB), ("D", GD))]


@cache
def pool_chains():
    """The distinct complete chains that the construct pool's jobs build."""
    jobs = _load_jobs()
    out = {}
    for index in range(jobs.POOL_SIZE["construct"]):
        doc = json.loads(jobs.construct_job(index).text)
        try:
            chain = JobConfig(doc).chain()
        except (MathRejection, MalformedInput):
            continue
        if chain.complete:
            out[json.dumps([doc["p"], doc["g"], doc.get("branch")])] = chain
    return tuple(out.items())


@cache
def sampled_chains(n_draws=300):
    """The complete chains of generators drawn as in test_fuzz (rng seed 7)."""
    rng = random.Random(7)
    out = []
    for _ in range(n_draws):
        doc = generator_doc(rng)
        try:
            chain = build_chain(ValuedFieldCtx(doc["p"]), UniPoly(doc["g"]),
                                doc["branch"], doc["depth"])
        except (MathRejection, MalformedInput):
            continue
        if chain.complete:
            out.append((json.dumps(doc), chain))
    return tuple(out)


# -- the identity --------------------------------------------------------------------

@pytest.mark.parametrize("name, want", [("A", 2), ("B", 0), ("D", 4)])
def test_worked_contexts(name, want):
    chain = dict(worked())[name]
    assert chain.complete
    assert v_disc(chain) == want
    assert 2 * basis_index(chain) == want
    assert 2 * basis_index(collapse(chain)) == want
    # the monomials are integral elements: each has value 0 at eta
    assert all(chain.nu(mono).value == 0 for mono in basis(chain))


def test_construct_pool_chains():
    named = pool_chains()
    assert len(named) >= 50
    for name, chain in named:
        assert 2 * basis_index(chain) == v_disc(chain), name
        assert 2 * basis_index(collapse(chain)) == v_disc(chain), name


def test_sampled_generators():
    named = sampled_chains()
    assert len(named) >= 80
    for name, chain in named:
        assert 2 * basis_index(chain) == v_disc(chain), name
        assert 2 * basis_index(collapse(chain)) == v_disc(chain), name


def test_first_key_of_each_degree_breaks_the_identity():
    broken = [name for name, chain in sampled_chains()
              if 2 * basis_index(chain, first) != v_disc(chain)]
    assert broken


def test_discriminant_matches_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")
    named = worked() + list(pool_chains()) + list(sampled_chains())
    for name, chain in named:
        g = sum(int(c) * x ** i for i, c in enumerate(chain.g.coeffs))
        disc = int(sympy.discriminant(g, x))
        assert disc != 0 and pval(chain.ctx, disc) == v_disc(chain), name
