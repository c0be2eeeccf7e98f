#!/usr/bin/env python3
"""Closed-loop job benchmark for valring: one client, no think time.

    python3 bench/run.py --workload certify --seed 1 --seconds 30 --trace 0

Run from the repository root.  The seed picks the run's job list
(jobs.job_list).  A pass runs the whole list once, in order, in a fresh
worker process (worker.py), so jobs are distinct within a pass and no cache
survives from one pass into the next.  A round is ROUND_PASSES passes, and
a job's latency in a round is its least time over them.  Rounds repeat
while another one as long as the last still fits in --seconds.  Times are
scaled to a reference machine speed with the calibration kernel the worker
times between jobs (README.md says why).  Every job of every pass is
checked against the golden record (golden/<workload>.txt) and the known
answers of its kind.

--trace 0 reports the end-to-end metrics; --trace 1 runs one untraced and
one traced pass over the same list and reports the per-layer metrics.  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  README.md lists every metric.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import jobs

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"

# per-job time limits; a job past its limit is stopped and counts as failed
JOB_LIMIT_S = {"certify": 10.0, "construct": 30.0, "deep": 10.0}
ROUND_PASSES = 3
# the calibration kernel's typical time between jobs on the machine the
# benchmark was built on (Python 3.11, 2 shared cores); job times are
# reported at this speed
KERNEL_REF_S = 0.00065
# kernel times on each side of a job that set its speed factor
KERNEL_WINDOW = 2
PASS_TIMEOUT_S = 150.0


class Worker:
    """A worker process that has received the job list."""

    def __init__(self, workload: str, job_list, spans: Path | None = None):
        cmd = [sys.executable, str(BENCH / "worker.py"),
               "--limit", str(JOB_LIMIT_S[workload])]
        if spans is not None:
            cmd += ["--spans", str(spans)]
        payload = json.dumps([[j.index, j.command, j.text, j.cofactors]
                              for j in job_list])
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)
        self.proc.stdin.write(payload + "\n")
        self.proc.stdin.flush()
        ready = self.proc.stdout.readline()
        self.setup_s = time.perf_counter() - t0
        if ready.strip() != "ready":
            self.close("")
            raise RuntimeError(f"worker failed during set-up (exit {self.proc.returncode})")

    def run(self) -> dict:
        out = self.close("go\n")
        if self.proc.returncode != 0 or not out:
            raise RuntimeError(f"worker failed (exit {self.proc.returncode})")
        return json.loads(out)

    def close(self, command: str) -> str:
        try:
            out, _ = self.proc.communicate(command, timeout=PASS_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
            raise
        return out


def load_golden(workload: str):
    """Pool index -> (exit code, reason or None, digest)."""
    out = []
    with open(BENCH / "golden" / f"{workload}.txt") as fh:
        for line in fh:
            code, reason, fp = line.split()
            out.append((int(code), None if reason == "-" else reason, fp))
    return out


def problem(job, golden, result):
    """Why a job's result counts as a failure, or None when it is correct:
    a crash or timeout, a difference from the golden record (when given),
    or a broken known answer."""
    _, code, reason, fp, flags = result
    if code is None:
        return reason
    if golden is not None and (code, reason, fp) != golden[job.index]:
        return f"differs from the golden record: exit {code} {reason} {fp}"
    if job.expect == "in-ideal" and code != 0:
        return f"in-ideal member exited {code} {reason}"
    if job.expect == "not-in-ideal" and (code, reason) != (2, "not-in-ideal"):
        return f"not-in-ideal member exited {code} {reason}"
    if job.expect == "check-passes" and flags is not None and not all(flags):
        return "check job reports a failed validation or relation"
    return None


def at_reference_speed(out) -> list:
    """A pass's job times scaled to the reference machine speed: each time
    times KERNEL_REF_S over the median kernel time around the job."""
    ks, scaled = out["kernel_s"], []
    for (t, *_), at in zip(out["results"], out["kernel_at"]):
        near = ks[max(0, at - KERNEL_WINDOW):at + KERNEL_WINDOW + 1]
        scaled.append(t * KERNEL_REF_S / statistics.median(near))
    return scaled


def end_to_end(workload, job_list, golden, seconds):
    """Rounds until `seconds` have passed; returns (metrics, attempted,
    failures)."""
    setups, passes, lat_ms, raw_s = [], [], [], 0.0
    start = last = time.perf_counter()
    # another round only if one as long as the last still fits
    while not passes or 2 * time.perf_counter() - last - start <= seconds:
        last = time.perf_counter()
        round_ = []
        for _ in range(ROUND_PASSES):
            worker = Worker(workload, job_list)
            out = worker.run()
            setups.append(worker.setup_s * KERNEL_REF_S / statistics.median(out["kernel_s"]))
            round_.append(out)
        passes += round_
        lat_ms += [min(times) * 1e3 for times in zip(*map(at_reference_speed, round_))]
        raw_s += sum(min(times) for times in zip(*([r[0] for r in out["results"]]
                                                    for out in round_)))
    failures = [(job.index, why) for out in passes
                for job, r in zip(job_list, out["results"])
                if (why := problem(job, golden, r)) is not None]
    attempted = len(passes) * len(job_list)
    p90 = statistics.quantiles(lat_ms, n=100, method="inclusive")[89]
    print(f"{workload}: {len(passes)} passes of {len(job_list)} jobs, "
          f"{len(lat_ms)} latency samples (least of {ROUND_PASSES}), "
          f"{sum(t > p90 for t in lat_ms)} beyond p90; "
          f"{len(lat_ms) / raw_s:.2f} jobs/s before scaling to the reference speed; "
          f"fail_ratio {len(failures)}/{attempted}")
    metrics = {
        "jobs_per_s": {"value": 1e3 * len(lat_ms) / sum(lat_ms), "unit": "1/s"},
        "job_p50_ms": {"value": statistics.median(lat_ms), "unit": "ms"},
        "job_p90_ms": {"value": p90, "unit": "ms"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": max(out["rss_kb"] for out in passes) / 1024,
                        "unit": "MB"},
    }
    return metrics, attempted, failures


def per_layer(workload, job_list, golden, seed):
    """One untraced and one traced pass over the same list; returns
    (metrics, attempted, failures)."""
    plain = Worker(workload, job_list).run()
    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    spans = out_dir / f"spans-{workload}-{seed}.tsv"
    traced = Worker(workload, job_list, spans).run()
    failures = []
    for job, a, b in zip(job_list, plain["results"], traced["results"]):
        for r in (a, b):
            if (why := problem(job, golden, r)) is not None:
                failures.append((job.index, why))
        if a[1:] != b[1:]:
            failures.append((job.index, "traced output differs from untraced"))
    metrics = traced["layers"]
    untraced_s = sum(at_reference_speed(plain))
    traced_s = sum(at_reference_speed(traced))
    metrics["trace.overhead_ratio"] = {"value": traced_s / untraced_s, "unit": "ratio"}
    print(f"{workload}: {len(job_list)} jobs untraced in {untraced_s:.2f} s and traced "
          f"in {traced_s:.2f} s; spans in {spans.relative_to(BENCH.parent)}; "
          f"fail_ratio {len(failures)}/{2 * len(job_list)}")
    return metrics, 2 * len(job_list), failures


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="closed-loop valring job benchmark")
    ap.add_argument("--workload", required=True, choices=jobs.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if not (SRC / "valring" / "__init__.py").is_file():
        sys.exit(f"no valring package under {SRC}: run from a checkout of the repository")

    golden = load_golden(args.workload)
    job_list = jobs.job_list(args.workload, args.seed)
    if args.trace:
        metrics, attempted, failures = per_layer(args.workload, job_list, golden, args.seed)
    else:
        metrics, attempted, failures = end_to_end(args.workload, job_list, golden,
                                                  args.seconds)
    for index, why in failures[:20]:
        print(f"FAILED {args.workload} job {index}: {why}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
