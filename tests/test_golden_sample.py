"""Byte-identity against the benchmark's golden record on a sample.

Every 40th pool index of each workload (184 jobs) runs through the
benchmark's own job path, `bench/worker.run_job`, and its exit code, error
reason and output digest must match `bench/golden/<workload>.txt`.  The full
record is checked by `python3 bench/record_golden.py && git diff --exit-code
bench/golden`.  This test only reads `bench/`.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import valring.cli

BENCH = Path(__file__).resolve().parent.parent / "bench"
STRIDE = 40


def _load(name):
    spec = importlib.util.spec_from_file_location(f"_golden_sample_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


jobs = _load("jobs")
worker = _load("worker")


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_sample_matches_golden_record(workload):
    golden = (BENCH / "golden" / f"{workload}.txt").read_text().splitlines()
    assert len(golden) == jobs.POOL_SIZE[workload]
    make = jobs.GENERATORS[workload]
    for index in range(0, len(golden), STRIDE):
        job = make(index)
        code, reason, out = worker.run_job(valring.cli, job.command, job.text, job.cofactors)
        got = f"{code} {reason or '-'} {worker.digest(out)}"
        assert got == golden[index], (workload, index, job.command, job.text)
