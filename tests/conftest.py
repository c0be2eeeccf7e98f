import random

import pytest

from valring.algebra import INF, UniPoly, ValuedFieldCtx, _iexpand, _intval
from valring.cli import _built
from valring.errors import MalformedDivisor, MalformedInput
from valring.keychain import build_chain

CTX2 = ValuedFieldCtx(2)

GA = UniPoly((3, 0, 1))            # x^2 + 3
GB = UniPoly((1, -1, 1))           # x^2 - x + 1
GC = UniPoly((7, 0, 1))            # x^2 + 7, split branch eta = 3 mod 8
GD = UniPoly((3, 8, 5, 2, 1))      # x^4 + 2x^3 + 5x^2 + 8x + 3

BRANCH_C = [[0, 0]]


@pytest.fixture(autouse=True)
def cold_chain_memo():
    """Every test starts with no built chain kept, as a fresh process
    does: `cli.run` reuses the chains of earlier jobs in the process."""
    _built.cache_clear()


@pytest.fixture(scope="session")
def ctx():
    return CTX2


@pytest.fixture(scope="session")
def chain_a():
    return build_chain(CTX2, GA, "unique")


@pytest.fixture(scope="session")
def chain_a_collapsed():
    return build_chain(CTX2, GA, "unique", mode="collapsed")


@pytest.fixture(scope="session")
def chain_b():
    return build_chain(CTX2, GB, "unique")


@pytest.fixture(scope="session")
def chain_c():
    return build_chain(CTX2, GC, BRANCH_C, depth=4)


@pytest.fixture(scope="session")
def chain_c6():
    return build_chain(CTX2, GC, BRANCH_C, depth=6)


@pytest.fixture(scope="session")
def chain_d():
    return build_chain(CTX2, GD, "unique")


@pytest.fixture(scope="session")
def all_chains(chain_a, chain_b, chain_c, chain_d):
    return {"A": chain_a, "B": chain_b, "C": chain_c, "D": chain_d}


def qexpand_ref(f, q, scale=1) -> tuple:
    """The q-expansion of the UniPoly f as UniPoly digits, digit j times
    scale^j, by repeated `divmod`: the reference for `algebra.qexpand`, the
    int digit engine, and for the Qt_k-expansions of the cascades it runs.
    It refuses the divisors the engine refuses (q not monic integral, or
    constant)."""
    if q.degree < 1 or not q.is_monic or not q.is_integral:
        raise MalformedDivisor(f"expansion divisor must be monic integral nonconstant, got {q!r}")
    out, s = [], UniPoly((1,))
    while not f.is_zero:
        f, r = divmod(f, q)
        out.append(r * s)
        s = s * scale
    return tuple(out)


def recursive_line(chain, i, f) -> dict:
    """The oracle-free route to `truncate` and `s_set`: {j: nu(f_j) +
    j*gamma_i} over the nonzero digits of f's Q_i-expansion, every digit
    valued by the chain's own evaluator (`KeyChain.value_line` below Q_i)."""
    ent = chain.entry(i)
    if ent.gamma is INF:
        raise MalformedInput("truncation needs a position of finite value")
    vden = _intval(chain.ctx.p, f.den)
    line = chain.value_line(i - 1, _iexpand(f.nums, ent.Q.nums), ent.gamma)
    return {j: v - vden for j, v in line.items()}


def recursive_truncate(chain, i, f):
    return min(recursive_line(chain, i, f).values(), default=INF)


def rand_unipoly(rng: random.Random, max_deg: int, height: int = 2 ** 16) -> UniPoly:
    deg = rng.randrange(0, max_deg + 1)
    coeffs = [rng.randrange(-height, height + 1) for _ in range(deg + 1)]
    return UniPoly(coeffs)


def rand_xpoly(rng: random.Random, positions, max_exp=2, n_terms=4, height=16):
    from valring.xpoly import XPoly
    terms = {}
    for _ in range(n_terms):
        mono = {}
        for k in positions:
            e = rng.randrange(0, max_exp + 1)
            if e:
                mono[k] = e
        key = tuple(sorted(mono.items()))
        terms[key] = terms.get(key, 0) + rng.randrange(-height, height + 1)
    return XPoly(terms)
