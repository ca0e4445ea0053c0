"""Benchmark entry point for padicdyn.

    python3 perfbench/run.py --workload fixed-points --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout; padicdyn is imported from ./src,
so there is nothing to build.  Each run starts fresh interpreters
(worker.py): several set-up-only ones to time set-up, then one that runs the
workload as a single closed-loop client for --seconds and checks every
output.  The last line of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics for --trace 0 and the per-layer metrics for
--trace 1.  The full record, with per-function trace tables, is also written
to .perfbench/ in the checkout.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("fixed-points", "repeller", "gibbs")
SETUP_BEFORE, SETUP_AFTER = 5, 6   # timed fresh interpreters around the run
SETUP_TIMEOUT_S = 30
RUN_GRACE_S = 90           # beyond --seconds, for the last pass and the checks


def _worker(args) -> list[str]:
    return [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed)]


def setup_samples(args, count: int) -> list[float]:
    """Times from interpreter start to ready-for-the-first-operation, scaled
    to the reference speed measured between them."""
    seconds, refs = [], [calibrate.reference_seconds()]
    for _ in range(count):
        t0 = time.perf_counter()
        proc = subprocess.Popen([*_worker(args), "--setup-only"], cwd=ROOT,
                                stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            seconds.append(time.perf_counter() - t0)
            proc.wait(timeout=SETUP_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up run failed with exit {proc.returncode}")
        refs.append(calibrate.reference_seconds())
    return calibrate.scaled(seconds, refs)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="padicdyn benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if not (ROOT / "src" / "padicdyn" / "cli.py").is_file():
        print(f"padicdyn sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2

    try:
        # the first set-up compiles bytecode, as an install would: not timed
        setup = [] if args.trace else setup_samples(args, 1 + SETUP_BEFORE)[1:]
        proc = subprocess.run([*_worker(args), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)],
                              cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=args.seconds + RUN_GRACE_S)
        if not args.trace:
            setup += setup_samples(args, SETUP_AFTER)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"worker exited with {proc.returncode}", file=sys.stderr)
        return 1
    record = json.loads(lines[-1])
    if setup:
        record["metrics"]["setup_s"] = {"value": statistics.median(setup), "unit": "s"}

    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    kind = "trace" if args.trace else "result"
    (out_dir / f"{kind}-{args.workload}-seed{args.seed}.json").write_text(
        json.dumps(record, indent=1))
    print(json.dumps({key: record[key]
                      for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
