"""An independent checker of membership certificates.

A certifying algorithm's output is trusted once a simple checker accepts it
(McConnell, Mehlhorn, Naeher & Schweitzer, "Certifying algorithms", 2011).
For every third in-ideal `member` job of the benchmark's certify pool
(400 of 1,200, all four contexts; the whole set takes about 5 s), the
certificate written by the CLI must satisfy

    F = i2_poly * i2_cofactor + sum over parts of cofactor * relation_target

with F the job's payload and each relation read from the CLI's `present`
output for the same chain.  The arithmetic below is its own: a polynomial
is a dict from a sorted tuple of (position, exponent) pairs to a nonzero
Fraction, sharing no code with `XPoly` or `GeneratorSet.combine`.  This
test only reads `bench/`.
"""

import importlib.util
import json
import sys
from fractions import Fraction
from pathlib import Path

from valring.cli import JobConfig, run, serialize

BENCH = Path(__file__).resolve().parent.parent / "bench"
STRIDE = 3           # prime to the four contexts, which alternate


def _load_jobs():
    spec = importlib.util.spec_from_file_location("_checker_jobs", BENCH / "jobs.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def parse(terms) -> dict:
    out = {}
    for term in terms:
        mono = tuple(sorted((int(k), e) for k, e in term["e"].items()))
        out[mono] = out.get(mono, 0) + Fraction(term["c"])
    return {m: c for m, c in out.items() if c}


def add(f: dict, g: dict) -> dict:
    out = dict(f)
    for m, c in g.items():
        out[m] = out.get(m, 0) + c
    return {m: c for m, c in out.items() if c}


def mul(f: dict, g: dict) -> dict:
    out = {}
    for m1, c1 in f.items():
        for m2, c2 in g.items():
            exps = dict(m1)
            for k, e in m2:
                exps[k] = exps.get(k, 0) + e
            m = tuple(sorted(exps.items()))
            out[m] = out.get(m, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


def cli_json(command: str, doc: dict) -> dict:
    return json.loads(serialize(run(command, JobConfig(doc))))


def re_expand(cert: dict, relations: dict) -> dict:
    total = mul(parse(cert["i2_poly"]), parse(cert["i2_cofactor"]))
    for part in cert["i1_parts"]:
        total = add(total, mul(parse(part["cofactor"]), relations[str(part["target"])]))
    return total


def in_ideal_jobs():
    """(pool index, chain config, payload) of every STRIDE-th in-ideal job."""
    jobs = _load_jobs()
    kinds, n_contexts = jobs.CERTIFY_KINDS, len(jobs.CONTEXTS)
    in_ideal = [i for i in range(jobs.POOL_SIZE["certify"])
                if kinds[i // n_contexts % len(kinds)] == "member-in"]
    assert len(in_ideal) == 1200
    for index in in_ideal[::STRIDE]:
        job = jobs.certify_job(index)
        assert job.expect == "in-ideal"
        doc = json.loads(job.text)
        yield index, doc, doc.pop("payload")


def test_in_ideal_certificates_re_expand():
    relations = {}       # chain config text -> {target: relation}
    for index, doc, payload in in_ideal_jobs():
        key = json.dumps(doc, sort_keys=True)
        if key not in relations:
            relations[key] = {gen["target"]: parse(gen["relation"])
                              for gen in cli_json("present", doc)["I1"]}
        cert = cli_json("member", dict(doc, payload=payload))
        assert re_expand(cert, relations[key]) == parse(payload["xpoly"]), index
    assert len(relations) == 4


def test_changed_certificate_is_refused():
    _, doc, payload = next(in_ideal_jobs())
    relations = {gen["target"]: parse(gen["relation"])
                 for gen in cli_json("present", doc)["I1"]}
    cert = cli_json("member", dict(doc, payload=payload))
    cert["i2_cofactor"].append({"c": "1", "e": {}})
    assert re_expand(cert, relations) != parse(payload["xpoly"])
