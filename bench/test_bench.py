"""The benchmark's own checks: the wrapped names exist, the traced run
reaches the layers each workload is meant to stress without changing any
output, the jobs match the golden record, and a second seed sends the same
command mix.

    PYTHONPATH=src python3 -m pytest -q bench
"""

from __future__ import annotations

import inspect
from collections import Counter

import pytest

import jobs
import run
import tracer
import worker

CLI = worker.load_valring()

# layers (or single functions) each workload must exercise when traced
STRESSED = {
    "certify": ("rewrite.", "xpoly.", "verify."),
    "construct": ("algebra.factor_monic",),
    "deep": ("algebra.hensel_root", "algebra.qexpand"),
}
SAMPLE = 36


def _sample(workload):
    """The first SAMPLE jobs of seed 1's list, without the multi-second
    construct cliff job."""
    return [j for j in jobs.job_list(workload, 1) if j.index != 0 or workload != "construct"][:SAMPLE]


def _run(job_list, tr=None):
    out = []
    for n, job in enumerate(job_list):
        if tr is not None:
            tr.begin_job(n)
        out.append(worker.timed_job(CLI, job.command, job.text, job.cofactors,
                                    run.JOB_LIMIT_S["construct"]))
    return out


@pytest.mark.parametrize("layer,target",
                         [(layer, t) for layer in tracer.LAYERS for t in tracer.WRAPPED[layer]])
def test_wrapped_name_is_public_function(layer, target):
    owner, attr, fn = tracer.resolve(layer, target)
    assert not attr.startswith("_")
    assert inspect.isfunction(fn)
    assert fn.__module__ == f"valring.{layer}"
    assert fn.__qualname__ == target


def test_install_and_uninstall_restore_every_binding():
    import valring.cli
    import valring.keychain
    before = (valring.cli.build_chain, valring.keychain.build_chain,
              valring.keychain.KeyChain.nu)
    tr = tracer.Tracer()
    tr.install()
    try:
        assert valring.cli.build_chain is valring.keychain.build_chain
        assert valring.cli.build_chain is not before[0]
        assert valring.keychain.KeyChain.nu is not before[2]
    finally:
        tr.uninstall()
    assert (valring.cli.build_chain, valring.keychain.build_chain,
            valring.keychain.KeyChain.nu) == before


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_traced_run_exercises_layers_and_keeps_outputs(workload):
    job_list = _sample(workload)
    plain = _run(job_list)
    tr = tracer.Tracer()
    tr.install()
    try:
        traced = _run(job_list, tr)
    finally:
        tr.uninstall()
    assert [r[1:] for r in traced] == [r[1:] for r in plain]
    calls = {name: t["calls"] for name, t in tr.totals().items()}
    for prefix in STRESSED[workload]:
        assert sum(n for name, n in calls.items() if name.startswith(prefix)) > 0, prefix
    layers = tr.per_layer(sum(r[0] for r in traced))
    assert all(layers[f"{layer}.self_share"]["value"] <= 1.0 for layer in tracer.LAYERS)


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_sample_matches_golden_record(workload):
    golden = run.load_golden(workload)
    assert len(golden) == jobs.POOL_SIZE[workload]
    job_list = _sample(workload)
    for job, result in zip(job_list, _run(job_list)):
        assert run.problem(job, golden, result) is None, job


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_second_seed_sends_same_command_mix(workload):
    a, b = jobs.job_list(workload, 1), jobs.job_list(workload, 2)
    mix = Counter((j.command, j.expect, j.index % jobs.STRATA[workload]) for j in a)
    assert mix == Counter((j.command, j.expect, j.index % jobs.STRATA[workload]) for j in b)
    assert len({j.index for j in a}) == len(a) == jobs.LIST_SIZE[workload]
    if jobs.LIST_SIZE[workload] < jobs.POOL_SIZE[workload]:
        assert {j.index for j in a} != {j.index for j in b}
    assert jobs.job_list(workload, 1) == a
