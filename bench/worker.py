#!/usr/bin/env python3
"""One benchmark pass: a fresh interpreter that runs a job list once, in
order, one job at a time.

Protocol on stdin/stdout, driven by run.py:
  1. read one line: the job list, [[index, command, config text, cofactors], ...];
  2. import valring, parse every config (deserialize + JobConfig) and
     print "ready" -- the end of set-up;
  3. read one line: "go" runs the jobs, anything else exits;
  4. print one JSON line: {"results": [[seconds, exit code, reason, digest,
     check flags], ...], "kernel_s", "rss_kb"} plus, with --trace, "layers"
     (the per-layer metrics of tracer.per_layer) and the span file written.
     "kernel_s" holds the times of the calibration kernel, run before the
     first job and again after every CALIBRATE_EVERY_S of job time, and
     "kernel_at" the index of the latest kernel time before each job.

Each job follows the `valring.cli.main` path without file I/O:
deserialize -> JobConfig -> run -> serialize, with MalformedInput as exit 1
and MathRejection as exit 2.  A job that raises anything else, or runs past
its time limit, gets exit code None and the reason says why.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import signal
import sys
import time
from fractions import Fraction
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
# job time between two timings of the calibration kernel
CALIBRATE_EVERY_S = 0.05


def _kernel():
    acc = Fraction(0)
    buckets = {}
    for k in range(1, 80):
        acc += Fraction(k * 7919 % 104729, k + 3) * Fraction(3, 2 * k + 1)
        buckets[k % 7] = buckets.get(k % 7, 0) + k ** 24 // (k + 11)


def calibration_kernel() -> float:
    """Seconds taken by a fixed piece of exact pure-Python arithmetic of the
    library's kind (Fractions, big integers, dicts), the lesser of two
    back-to-back runs so that the job before it matters little.  It uses no
    valring code, so its time tracks only the speed of the machine."""
    best = float("inf")
    for _ in range(2):
        t0 = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - t0)
    return best


class JobTimeout(BaseException):
    """Raised inside a job by the interval timer; a BaseException so that no
    handler inside the library can swallow it."""


def _on_alarm(signum, frame):
    raise JobTimeout()


def load_valring():
    """Import valring from the checkout's src/ and arm the job timer."""
    if not (SRC / "valring" / "__init__.py").is_file():
        sys.exit(f"no valring package under {SRC}: run from a checkout "
                 "of the repository")
    sys.path.insert(0, str(SRC))
    import valring.cli
    signal.signal(signal.SIGALRM, _on_alarm)
    return valring.cli


def digest(text: str) -> str:
    """The golden record's fingerprint of an output: the first 128 bits of
    its SHA-256."""
    return hashlib.sha256(text.encode()).hexdigest()[:32]


def run_job(cli, command: str, text: str, cofactors: bool):
    """(exit code, error reason, output text) as `cli.main` produces them."""
    from valring.errors import MalformedInput, MathRejection
    try:
        config = cli.JobConfig(cli.deserialize(text))
        return 0, None, cli.serialize(cli.run(command, config, trace=cofactors))
    except MalformedInput as e:
        return 1, e.reason, cli.serialize({"error": e.reason, "message": str(e)})
    except MathRejection as e:
        return 2, e.reason, cli.serialize({"error": e.reason, "message": str(e)})


def timed_job(cli, command, text, cofactors, limit_s):
    """[seconds, exit code, reason, digest, check flags].  The check flags are
    validation_passed and relations_passed of a successful check job."""
    signal.setitimer(signal.ITIMER_REAL, limit_s)
    t0 = time.perf_counter()
    try:
        code, reason, out = run_job(cli, command, text, cofactors)
    except JobTimeout:
        code, reason, out = None, "timeout", ""
    except Exception as e:  # a crash fails the job, not the pass
        code, reason, out = None, f"crash {type(e).__name__}: {e}", ""
    finally:
        t1 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, 0)
    flags = None
    if command == "check" and code == 0:
        doc = json.loads(out)
        flags = [doc["validation_passed"], doc["relations_passed"]]
    return [t1 - t0, code, reason, digest(out), flags]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="one benchmark pass (see run.py)")
    ap.add_argument("--limit", type=float, required=True, help="per-job seconds")
    ap.add_argument("--spans", help="trace the pass and write its spans here")
    args = ap.parse_args(argv)

    job_list = json.loads(sys.stdin.readline())
    cli = load_valring()
    for _, _, text, _ in job_list:
        cli.JobConfig(cli.deserialize(text))
    print("ready", flush=True)
    if sys.stdin.readline().strip() != "go":
        return 0

    tr = None
    if args.spans:
        import tracer
        tr = tracer.Tracer()
        tr.install()
    results, kernel_s, kernel_at = [], [], []
    since = CALIBRATE_EVERY_S
    for n, (_, command, text, cofactors) in enumerate(job_list):
        if since >= CALIBRATE_EVERY_S:
            kernel_s.append(calibration_kernel())
            since = 0.0
        kernel_at.append(len(kernel_s) - 1)
        if tr is not None:
            tr.begin_job(n)
        results.append(timed_job(cli, command, text, cofactors, args.limit))
        since += results[-1][0]
    out = {"results": results, "kernel_s": kernel_s, "kernel_at": kernel_at,
           "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tr is not None:
        tr.uninstall()
        out["layers"] = tr.per_layer(sum(r[0] for r in results))
        tr.write(args.spans)
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
