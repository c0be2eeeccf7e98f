#!/usr/bin/env python3
"""Write the golden record of one or more workloads: for every job of the
pool, its exit code, error reason ("-" for none) and output digest, one line
per pool index, into bench/golden/<workload>.txt.

    python3 bench/record_golden.py [workload ...]

Run from the repository root at the commit whose outputs are the reference.
A job that crashes, times out or breaks the known answer of its kind stops
the recording, so the record never holds a wrong answer.
"""

from __future__ import annotations

import sys

import jobs
import run
import worker


def record(cli, workload: str) -> None:
    lines = []
    for job in jobs.pool(workload):
        result = worker.timed_job(cli, job.command, job.text, job.cofactors,
                                  run.JOB_LIMIT_S[workload])
        why = run.problem(job, None, result)
        if why is not None:
            sys.exit(f"{workload} job {job.index}: {why}")
        _, code, reason, fp, _ = result
        lines.append(f"{code} {reason or '-'} {fp}\n")
    path = run.BENCH / "golden" / f"{workload}.txt"
    path.parent.mkdir(exist_ok=True)
    path.write_text("".join(lines))
    print(f"{workload}: {len(lines)} jobs -> {path}")


def main(argv) -> int:
    cli = worker.load_valring()
    for workload in argv or jobs.WORKLOADS:
        record(cli, workload)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
