"""Seeded job generators for the three benchmark workloads.

A workload is a pool of POOL_SIZE[workload] jobs.  Job `index` of a pool is
a pure function of (workload, index), so the golden record in
`golden/<workload>.txt` covers every job any seed can draw.  The seed picks
a run's job list from the pool: the indices are split into strata (index
modulo the stratum count), each stratum is shuffled by the seed, and the
list takes one job from every stratum in turn until it holds
LIST_SIZE[workload] jobs.  So every seed sends the same command mix, and
two seeds share only part of their jobs.

construct is the exception: its job costs span four decades (0.05 ms to
seconds), so the median of a random few hundred of them moves by +-20%
between seeds.  Its list is the whole pool, the same jobs for every seed,
in the seed's order.

The generators use no valring code: the library under test receives only
the finished config documents.  In-ideal and not-in-ideal membership inputs
are built from the I1/I2 presentations of the four p = 2 worked contexts,
which the acceptance suite pins (criteria 01-04).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

WORKLOADS = ("certify", "construct", "deep")

POOL_SIZE = {"certify": 4800, "construct": 160, "deep": 2400}
# a list takes about 9 s at the seed commit, so a round of three passes
# fits a 30 s run
LIST_SIZE = {"certify": 1200, "construct": 160, "deep": 480}


@dataclass(frozen=True)
class Job:
    index: int
    command: str
    text: str            # the config document, canonical JSON
    cofactors: bool      # the CLI's --trace flag (rewriting cofactors)
    expect: str | None   # known answer by construction, checked by run.py


# -- sparse integer polynomials in X_0, X_1, ... -------------------------------
# A monomial is a sorted tuple of (position, exponent) pairs, as in valring.

def _mono_mul(a, b):
    out = dict(a)
    for k, e in b:
        out[k] = out.get(k, 0) + e
    return tuple(sorted(out.items()))


def _poly_add(f, g):
    out = dict(f)
    for m, c in g.items():
        out[m] = out.get(m, 0) + c
    return {m: c for m, c in out.items() if c}


def _poly_mul(f, g):
    out = {}
    for m1, c1 in f.items():
        for m2, c2 in g.items():
            m = _mono_mul(m1, m2)
            out[m] = out.get(m, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


def _poly(*terms):
    """_poly((c, {pos: exp}), ...) as a sparse polynomial."""
    out = {}
    for c, e in terms:
        out = _poly_add(out, {tuple(sorted(e.items())): c})
    return out


def _poly_text(f):
    return [{"c": str(c), "e": {str(k): e for k, e in m}}
            for m, c in sorted(f.items())]


def _rand_xpoly(rng, positions, max_exp, n_terms, height=16):
    """The acceptance suite's random polynomial: n_terms draws of a monomial
    over `positions` with a coefficient in [-height, height]."""
    out = {}
    for _ in range(n_terms):
        mono = tuple((k, e) for k in positions
                     for e in (rng.randrange(0, max_exp + 1),) if e)
        out = _poly_add(out, {mono: rng.randrange(-height, height + 1)})
    return out


def _doc_text(doc) -> str:
    return json.dumps(doc, sort_keys=True)


# -- certify: rewriting and certificates on the worked contexts ---------------

@dataclass(frozen=True)
class Context:
    p: int
    g: list
    branch: object
    depth: int
    offsets: dict        # star position -> offset inside its plateau
    bodies: tuple        # I1 relation polynomials and I2 bodies

    def config(self, payload) -> dict:
        return {"p": self.p, "g": self.g, "branch": self.branch,
                "depth": self.depth, "payload": payload}


CONTEXTS = {
    "A": Context(2, [3, 0, 1], "unique", 16, {0: 0, 1: 1}, (
        _poly((2, {1: 1}), (-1, {0: 1}), (-1, {})),
        _poly((1, {1: 2}), (-1, {1: 1}), (1, {})))),
    "B": Context(2, [1, -1, 1], "unique", 16, {0: 0}, (
        _poly((1, {0: 2}), (-1, {0: 1}), (1, {})),)),
    "C": Context(2, [7, 0, 1], [[0, 0]], 4, {0: 0, 1: 1, 2: 2, 3: 3}, (
        _poly((4, {1: 1}), (-1, {0: 1}), (-1, {})),
        _poly((2, {2: 1}), (-1, {1: 1}), (1, {})),
        _poly((8, {3: 1}), (-1, {2: 1}), (1, {})),
        _poly((1, {0: 2}), (7, {})),
        _poly((2, {1: 2}), (-1, {1: 1}), (1, {})),
        _poly((4, {2: 2}), (3, {2: 1}), (1, {})),
        _poly((32, {3: 2}), (11, {3: 1}), (1, {})))),
    "D": Context(2, [3, 8, 5, 2, 1], "unique", 16, {0: 0, 1: 0}, (
        _poly((2, {1: 1}), (-1, {0: 2}), (-1, {0: 1}), (-1, {})),
        _poly((1, {1: 2}), (1, {1: 1}), (1, {0: 1})))),
}

CERTIFY_KINDS = ("member-in", "member-out", "build", "reduce")


def _in_ideal(rng, ctx: Context):
    """A random combination of the presentation's generators (criterion 08)."""
    positions = sorted(ctx.offsets)
    while True:
        F = {}
        for body in ctx.bodies:
            F = _poly_add(F, _poly_mul(_rand_xpoly(rng, positions, 1, 4), body))
        if F:
            return F


def _with_variables(rng, ctx: Context):
    positions = sorted(ctx.offsets)
    while True:
        F = _rand_xpoly(rng, positions, 2, 4)
        if any(m for m in F):
            return F


def certify_job(index: int) -> Job:
    rng = random.Random(f"certify:{index}")
    names = sorted(CONTEXTS)
    ctx = CONTEXTS[names[index % len(names)]]
    kind = CERTIFY_KINDS[(index // len(names)) % len(CERTIFY_KINDS)]
    if kind == "member-in":
        doc = ctx.config({"xpoly": _poly_text(_in_ideal(rng, ctx))})
        return Job(index, "member", _doc_text(doc), False, "in-ideal")
    if kind == "member-out":
        # generator combination plus c*X_k or c: it evaluates to c*Qt_k(eta)
        # or c, nonzero because g is irreducible and deg Q_k < deg g
        k = rng.choice([None] + sorted(ctx.offsets))
        c = rng.choice([-1, 1]) * rng.randrange(1, 17)
        bump = _poly((c, {k: 1} if k is not None else {}))
        F = _poly_add(_in_ideal(rng, ctx), bump)
        doc = ctx.config({"xpoly": _poly_text(F)})
        return Job(index, "member", _doc_text(doc), False, "not-in-ideal")
    F = _with_variables(rng, ctx)
    if kind == "build":
        s = max(ctx.offsets[k] for m in F for k, _ in m)
        doc = ctx.config({"xpoly": _poly_text(F), "s": s})
        return Job(index, "build", _doc_text(doc), True, None)
    doc = ctx.config({"xpoly": _poly_text(F)})
    return Job(index, "reduce", _doc_text(doc), True, None)


# -- construct: chain construction over seeded generators ---------------------

CONSTRUCT_PRIMES = (3, 5, 7, 11)
CONSTRUCT_COMMANDS = ("chain", "present", "check")
# largest p**deg g drawn.  At 7**6, random degree-6 draws over F_7 take up
# to 5.5 s each and a list would no longer fit a round; the named generator
# below keeps that cliff in every list.
CONSTRUCT_BOUND = 7 ** 5
# the ROADMAP's degree-6 generator over F_7; it opens every construct list
CLIFF = {"p": 7, "g": [-36, 7, 13, 11, -4, -38, 1]}


def construct_job(index: int) -> Job:
    if index == 0:
        return Job(0, "chain", _doc_text(CLIFF), False, None)
    rng = random.Random(f"construct:{index}")
    p = CONSTRUCT_PRIMES[index % len(CONSTRUCT_PRIMES)]
    command = CONSTRUCT_COMMANDS[(index // len(CONSTRUCT_PRIMES)) % len(CONSTRUCT_COMMANDS)]
    max_deg = max(d for d in range(2, 7) if p ** d <= CONSTRUCT_BOUND)
    deg = rng.randint(2, max_deg)
    g = [rng.randint(-40, 40) for _ in range(deg)] + [1]
    # the first twelve draws keep a constant term divisible by p (rejected as
    # unsupported-normalization); the others redraw it until it is a unit
    while (g[0] % p == 0) != (index < 12):
        g[0] = rng.randint(-40, 40)
    # one in six sends no selector, so a split generator is rejected as
    # ambiguous.  With about 30% of the jobs rejected, the median falls
    # among the accepted jobs, not in the gap below them.
    branch = rng.choice(["unique"] + [[[0, 0]] * deg] * 5)
    doc = {"p": p, "g": g, "branch": branch, "seed": rng.randrange(2 ** 31)}
    return Job(index, command, _doc_text(doc),
               False, "check-passes" if command == "check" else None)


# -- deep: long truncated plateaus through the Hensel oracle ------------------

# (config, the selectors of its two branches); at p = 2 the branches differ
# in the slope picked at step 0, at p = 3 and 5 in the residual factor
DEEP_CHAINS = (
    ({"p": 2, "g": [7, 0, 1], "depth": 24}, ([[0, 0]], [[1, 0]])),
    ({"p": 3, "g": [2, 0, 1], "depth": 16}, ([[0, 0]], [[0, 1]])),
    ({"p": 5, "g": [1, 0, 1], "depth": 16}, ([[0, 0]], [[0, 1]])),
)
# 4:3:1:2 so that the median falls among the cheap eval/expand jobs and the
# 90th percentile among the check jobs, not in a gap between command costs
DEEP_COMMANDS = ("eval",) * 4 + ("expand",) * 3 + ("present",) + ("check",) * 2


def _rand_poly(rng, max_deg, height=2 ** 16):
    while True:
        f = [rng.randrange(-height, height + 1)
             for _ in range(rng.randrange(0, max_deg + 1) + 1)]
        if any(f):
            return f


def deep_job(index: int) -> Job:
    rng = random.Random(f"deep:{index}")
    base, branches = DEEP_CHAINS[index % len(DEEP_CHAINS)]
    branch = branches[index // len(DEEP_CHAINS) % 2]
    command = DEEP_COMMANDS[index // len(DEEP_CHAINS) // 2 % len(DEEP_COMMANDS)]
    doc = dict(base, branch=branch)
    if command == "eval":
        doc["payload"] = {"poly": _rand_poly(rng, 3)}
    elif command == "expand":
        # anchors in the upper half of the plateau: far-anchor expansions
        depth = base["depth"]
        doc["payload"] = {"poly": _rand_poly(rng, 3),
                          "anchor": rng.randrange(depth // 2, depth)}
    elif command == "check":
        doc["seed"] = rng.randrange(2 ** 31)
    return Job(index, command, _doc_text(doc),
               False, "check-passes" if command == "check" else None)


GENERATORS = {"certify": certify_job, "construct": construct_job, "deep": deep_job}
STRATA = {"certify": len(CONTEXTS) * len(CERTIFY_KINDS),
          "construct": len(CONSTRUCT_PRIMES) * len(CONSTRUCT_COMMANDS),
          "deep": len(DEEP_CHAINS) * 2 * len(DEEP_COMMANDS)}


def pool(workload: str):
    make = GENERATORS[workload]
    return [make(i) for i in range(POOL_SIZE[workload])]


def job_list(workload: str, seed: int):
    """The jobs a run with this seed sends, in order."""
    make = GENERATORS[workload]
    return [make(i) for i in run_order(workload, seed)[:LIST_SIZE[workload]]]


def run_order(workload: str, seed: int):
    """All pool indices in the seed's order: index 0 first (the construct
    cliff job; any job elsewhere), then rounds that take one unused index
    from every stratum, each stratum shuffled by the seed."""
    rng = random.Random(f"{workload}:{seed}")
    n, k = POOL_SIZE[workload], STRATA[workload]
    strata = [list(range(s, n, k)) for s in range(k)]
    strata[0].remove(0)
    for s in strata:
        rng.shuffle(s)
    order = [0]
    for r in range(max(map(len, strata))):
        order.extend(s[r] for s in strata if r < len(s))
    return order
