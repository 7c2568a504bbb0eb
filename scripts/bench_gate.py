#!/usr/bin/env python3
"""Pipeline benchmark regression gate.

Compares a fresh `pipeline --quick` run against the checked-in
BENCH_pipeline.json and fails (exit 1) when either:

- any fresh run lost the bitwise cross-thread identity gate, or
- any (particles, threads) row's fresh step-latency median exceeds the
  checked-in median by more than the tolerance factor.

The gate uses the *median* (p50), not the p99: quick mode times only ~20
steps, so its p99 is effectively the max of a small sample and one noisy-
neighbour preemption spike on a shared CI runner would fail the build.
The median is robust to those spikes while still catching real
regressions (losing the compressed-LUT fan fast path alone is a >2x
median hit at 4000 particles).

Usage: bench_gate.py BASELINE FRESH TOLERANCE
       e.g. bench_gate.py BENCH_pipeline.json BENCH_pipeline_fresh.json 2.5
"""

import json
import sys


def rows(doc):
    out = {}
    for run in doc.get("runs", []):
        for row in run.get("threads", []):
            out[(run["particles"], row["threads"])] = row
    return out


def main():
    if len(sys.argv) != 4:
        sys.exit(__doc__)
    with open(sys.argv[1]) as f:
        baseline = json.load(f)
    with open(sys.argv[2]) as f:
        fresh = json.load(f)
    tolerance = float(sys.argv[3])

    failures = []
    for run in fresh.get("runs", []):
        if not run["divergence"]["bitwise_identical"]:
            failures.append(
                f"N={run['particles']}: fused kernel diverged bitwise "
                f"(max |dw| = {run['divergence']['max_abs_weight_delta']})"
            )

    base_rows = rows(baseline)
    for key, fresh_row in sorted(rows(fresh).items()):
        base_row = base_rows.get(key)
        if base_row is None:
            continue  # new configuration: nothing to regress against
        limit = tolerance * base_row["step_ms_p50"]
        got = fresh_row["step_ms_p50"]
        n, threads = key
        status = "ok" if got <= limit else "REGRESSED"
        print(
            f"N={n} threads={threads}: step p50 {got:.3f} ms "
            f"(baseline {base_row['step_ms_p50']:.3f} ms, "
            f"limit {limit:.3f} ms) {status}"
        )
        if got > limit:
            failures.append(
                f"N={n} threads={threads}: step p50 {got:.3f} ms > "
                f"{tolerance}x baseline {base_row['step_ms_p50']:.3f} ms"
            )

    if failures:
        print("\npipeline benchmark regression gate FAILED:", file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        sys.exit(1)
    print("pipeline benchmark regression gate passed")


if __name__ == "__main__":
    main()
