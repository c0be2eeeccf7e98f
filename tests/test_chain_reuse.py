"""Built chains kept across the jobs of one process, caches kept per job.

`JobConfig.chain` copies the chain `cli._built` keeps for its (ctx, g,
branch, depth, mode): the copy shares the frozen entries and starts with an
empty cache.  A job's output must not depend on the jobs run before it in
the same process, no job may read another job's caches, a build that raises
must not be kept, and the memo must stay within CHAIN_MEMO_SIZE chains.
"""

import random

import pytest

import valring.cli as cli
import valring.keychain as keychain
from valring.algebra import OracleValue, UniPoly
from valring.cli import CHAIN_MEMO_SIZE, JobConfig, _built, run, serialize
from valring.errors import (AmbiguousBranch, InsufficientDepth, MalformedInput,
                            MathRejection)

CONTEXTS = (
    {"p": 2, "g": [3, 0, 1]},
    {"p": 2, "g": [1, -1, 1]},
    {"p": 2, "g": [7, 0, 1], "branch": [[0, 0]], "depth": 4},
    {"p": 2, "g": [3, 8, 5, 2, 1]},
)
DEEP = (
    {"p": 2, "g": [7, 0, 1], "depth": 24, "branch": [[0, 0]]},
    {"p": 2, "g": [7, 0, 1], "depth": 24, "branch": [[1, 0]]},
    {"p": 3, "g": [2, 0, 1], "depth": 16, "branch": [[0, 0]]},
    {"p": 3, "g": [2, 0, 1], "depth": 16, "branch": [[0, 1]]},
    {"p": 5, "g": [1, 0, 1], "depth": 16, "branch": [[0, 0]]},
    {"p": 5, "g": [1, 0, 1], "depth": 16, "branch": [[0, 1]]},
)
XPOLY = [{"c": 1, "e": {"1": 2}}, {"c": -1, "e": {"1": 1}}, {"c": 1, "e": {}}]
XPOLY_MIXED = [{"c": 3, "e": {"0": 1, "1": 1}}, {"c": "1/2", "e": {"1": 2}}]
POLY = [5, -3, 0, 7]
# exit 1 and exit 2 from the build itself
UNNORMALIZED = {"p": 2, "g": [4, 0, 1]}
DEPTH_CUT = {"p": 3, "g": [3486787612, -260, 1], "branch": [[1, 0]], "depth": 3}
AMBIGUOUS = {"p": 2, "g": ["7", "0", "1"], "depth": 4}


def mixed_jobs():
    jobs = []
    for ctx in CONTEXTS:
        jobs += [("member", {**ctx, "payload": {"xpoly": XPOLY}}),
                 ("member", {**ctx, "payload": {"xpoly": XPOLY_MIXED}}),
                 ("build", {**ctx, "payload": {"xpoly": XPOLY_MIXED, "s": 1}}),
                 ("reduce", {**ctx, "payload": {"xpoly": XPOLY}}),
                 ("present", ctx),
                 ("check", {**ctx, "seed": 3})]
    for doc in DEEP:
        jobs += [("eval", {**doc, "payload": {"poly": POLY}}),
                 ("expand", {**doc, "payload": {"poly": POLY, "anchor": doc["depth"] // 2}}),
                 ("check", {**doc, "seed": 5})]
    jobs += [("present", {**CONTEXTS[0], "mode": "collapsed"}),
             ("chain", UNNORMALIZED),
             ("chain", DEPTH_CUT)]
    return jobs


def outcome(command, doc):
    """(exit status, output text) as `cli.main` gives them."""
    try:
        return 0, serialize(run(command, JobConfig(dict(doc))))
    except MalformedInput as e:
        return 1, serialize({"error": e.reason, "message": str(e)})
    except MathRejection as e:
        return 2, serialize({"error": e.reason, "message": str(e)})


def cold(command, doc):
    _built.cache_clear()
    return outcome(command, doc)


def test_outputs_do_not_depend_on_job_order():
    jobs = mixed_jobs()
    want = [cold(command, doc) for command, doc in jobs]
    assert {status for status, _ in want} == {0, 1, 2}
    rng = random.Random(31)
    for _ in range(2):
        order = list(range(len(jobs)))
        rng.shuffle(order)
        for k in order:
            assert outcome(*jobs[k]) == want[k], jobs[k]
        assert _built.cache_info().hits > 0


def test_jobs_get_their_own_chain_and_cache(monkeypatch):
    doc = {**DEEP[0], "payload": {"poly": POLY}}
    first, second = JobConfig(dict(doc)).chain(), JobConfig(dict(doc)).chain()
    assert first is not second and first.entries is second.entries
    assert first.cache() == {} and second.cache() == {}
    want = cold("eval", doc)

    used = []
    chain = JobConfig.chain
    monkeypatch.setattr(JobConfig, "chain", lambda self: used.append(chain(self)) or used[-1])
    assert outcome("eval", doc) == want
    # poison every value job 1 kept, and the value of its payload
    memo = used[0].cache()["nu"]
    for key in memo:
        memo[key] = OracleValue(999, "poisoned")
    memo[UniPoly(POLY).nums] = OracleValue(999, "poisoned")
    assert used[0].nu(UniPoly(POLY)).method == "poisoned"
    assert outcome("eval", doc) == want
    assert len(used) == 2 and used[1] is not used[0] and used[1].entries is used[0].entries


@pytest.mark.parametrize("doc, error", [(DEPTH_CUT, InsufficientDepth),
                                        (AMBIGUOUS, AmbiguousBranch)])
def test_rejections_are_rebuilt_every_time(monkeypatch, doc, error):
    builds = []
    build = cli.build_chain
    monkeypatch.setattr(cli, "build_chain", lambda *a: builds.append(a) or build(*a))
    run("chain", JobConfig(dict(CONTEXTS[0])))
    size, built = _built.cache_info().currsize, len(builds)
    for n in range(1, 4):
        with pytest.raises(error):
            run("chain", JobConfig(dict(doc)))
        assert len(builds) == built + n
        assert _built.cache_info().currsize == size


class Interrupt(BaseException):
    pass


def test_interrupted_build_is_not_kept(monkeypatch):
    doc = {**DEEP[2], "payload": {"poly": POLY}}
    want = cold("eval", doc)
    _built.cache_clear()
    tail = keychain._hensel_tail
    fired = []

    def interrupted_once(*args):
        if not fired:
            fired.append(True)
            raise Interrupt()
        return tail(*args)

    monkeypatch.setattr(keychain, "_hensel_tail", interrupted_once)
    with pytest.raises(Interrupt):
        outcome("eval", doc)
    assert fired and _built.cache_info().currsize == 0
    assert outcome("eval", doc) == want
    assert _built.cache_info().currsize == 1


def test_memo_keys():
    run("chain", JobConfig({**CONTEXTS[2], "g": ["7", "0", "1"]}))
    run("chain", JobConfig({**CONTEXTS[2], "g": [7, 0, 1]}))
    assert _built.cache_info().currsize == 1
    run("chain", JobConfig({**CONTEXTS[2], "mode": "collapsed"}))
    assert _built.cache_info().currsize == 2
    for depth in (16, 17):
        run("chain", JobConfig({**DEEP[4], "depth": depth}))
    assert _built.cache_info().currsize == 4
    for depth in range(3, 43):
        run("chain", JobConfig({**CONTEXTS[0], "depth": depth}))
    assert _built.cache_info().currsize <= CHAIN_MEMO_SIZE
