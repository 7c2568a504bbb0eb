#!/usr/bin/env python3
"""Build the raceloc localization benchmark from source and run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload race_hq --seed 1 --seconds 15 --trace 0

The Rust package in perfbench/ is built with cargo (release, offline) into
$CARGO_TARGET_DIR, default .bench_build. The benchmark's standard output is
passed through unchanged: a listing of every metric with its unit and sample
count, then one JSON result line. Build output goes to standard error.

Exit codes: 0 success, 1 a correctness check failed, 2 the benchmark could not
be built, 3 the run exceeded its time limit.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("race_hq", "race_faults", "serve_mixed", "fleet_sweep")
# One run (build excluded) must finish well within three minutes.
RUN_TIMEOUT_S = 170


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isdir(os.path.join(ROOT, "crates")):
        print("perfbench: no crates/ next to perfbench/; nothing to build", file=sys.stderr)
        return 2
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2

    cmd = [os.path.join(target, "release", "raceloc-perfbench"),
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--out-dir", os.path.join(target, "perfbench")]
    sys.stdout.flush()
    try:
        run = subprocess.run(cmd, cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {args.workload} exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
