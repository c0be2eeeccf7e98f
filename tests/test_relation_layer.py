"""The relation layer does each piece of its work once per chain.

- A `check` expands Q_{i+1} in Q_i once per I1 pair: strong monicity is
  kept in the chain's cache, where `validate` and the I1 relation both
  read it, and the relation's full expansion starts from its digits.  The
  count wraps `keychain._iexpand` and `algebra._iexpand` (under `qexpand`)
  while the check runs on an already built chain, for each of the six deep
  branches of the benchmark.
- `GeneratorSet.i1_by_target` reads an index built once; it must return
  the very generator a scan of `i1` finds, on every suite chain (the
  worked contexts full and collapsed, the deep branches, seeded random
  generators), and still refuse a target held by no or by two relations.
- `redundancy_cofactor` on every consecutive pair of a truncated final
  plateau equals the certificate built here from `gens.i2` and
  `i1_decompose` directly, re-expanded term by term from zero.
"""

import json
from collections import Counter

import pytest

import valring.algebra as algebra
import valring.keychain as keychain
from valring.cli import JobConfig, check_doc, deserialize
from valring.errors import MalformedInput
from valring.keychain import IMAX, segment
from valring.presentrel import (GeneratorSet, i1_decompose, ideal_generators,
                                redundancy_cofactor)
from valring.xpoly import XPoly

from test_value_cascade import DEEP, chains

DEEP_BRANCHES = [(p, g, depth, branch) for p, g, depth, branches in DEEP for branch in branches]


@pytest.mark.parametrize("p,g,depth,branch", DEEP_BRANCHES)
def test_check_expands_each_i1_pair_once(monkeypatch, p, g, depth, branch):
    config = JobConfig(deserialize(json.dumps(
        {"p": p, "g": list(g), "depth": depth, "branch": branch, "seed": 7})))
    chain = config.chain()
    calls = Counter()
    plain = algebra._iexpand
    assert keychain._iexpand is plain

    def counting(nums, qn):
        calls[(tuple(nums), tuple(qn))] += 1
        return plain(nums, qn)

    monkeypatch.setattr(keychain, "_iexpand", counting)
    monkeypatch.setattr(algebra, "_iexpand", counting)
    doc = check_doc(chain, config)
    assert doc["validation_passed"] and doc["relations_passed"]
    pairs = [(i, ell) for i, ell, _ in segment(chain).succ_pairs if ell != IMAX]
    assert len(pairs) == depth - 1
    for i, ell in pairs:
        key = (chain.entries[ell].Q.nums, chain.entries[i].Q.nums)
        assert calls[key] == 1, (i, ell, calls[key])


NAMES = [name for name, _ in chains()]


@pytest.mark.parametrize("name", NAMES)
def test_i1_by_target_matches_a_scan(name):
    chain = dict(chains())[name]
    gens = ideal_generators(chain)
    for tgt in {g.target for g in gens.i1}:
        assert gens.i1_by_target(tgt) is next(g for g in gens.i1 if g.target == tgt)
    for gen in gens.i2:
        assert gens.i2_by_source(gen.source) is gen


def test_i1_by_target_refuses_missing_and_duplicate_targets():
    chain = dict(chains())["D"]
    gens = ideal_generators(chain)
    with pytest.raises(MalformedInput, match="expected one relation with target 0, got 0"):
        gens.i1_by_target(0)
    first = gens.i1[0]
    doubled = GeneratorSet(gens.i1 + (first,), gens.i2)
    with pytest.raises(MalformedInput,
                       match=f"expected one relation with target {first.target}, got 2"):
        doubled.i1_by_target(first.target)


def ref_redundancy(chain, i, i2):
    """The certificate of `redundancy_cofactor`, from a scan of gens.i2 and
    a re-expansion summed term by term."""
    gens = ideal_generators(chain)
    by_source = {g.source: g for g in gens.i2}
    gi, gi2 = by_source[i], by_source[i2]
    c0 = gi.b / gi2.b
    cof = i1_decompose(chain, gi.Q_poly - c0 * gi2.Q_poly, gens)
    acc = XPoly.zero()
    for tgt, c in cof.items():
        acc = acc + c * next(g for g in gens.i1 if g.target == tgt).relation_poly
    assert c0 * gi2.Q_poly + acc == gi.Q_poly
    return c0, cof, acc


def test_redundancy_cofactors_match_the_reference():
    checked = 0
    for name, chain in chains():
        final = segment(chain).plateaus[-1]
        if final.flag != "truncated-infinite":
            continue
        gens = ideal_generators(chain)
        ps = final.positions
        for i, i2 in zip(ps, ps[1:]):
            c0, cof, acc = ref_redundancy(chain, i, i2)
            assert redundancy_cofactor(chain, i, i2) == (c0, cof), (name, i)
            assert gens.combine(cof.items()) == acc, (name, i)
            checked += 1
    assert checked >= 100
