#!/usr/bin/env python3
"""Gate bench results against a committed baseline.

Every bench writes BENCH_<name>.json (--json). CI smoke-runs the whole
suite, then this script compares the results against the snapshot
committed under bench/baseline/ and FAILS the job when any TRACKED
metric regresses beyond its tolerance (relative).

Tracked metrics are listed in bench/baseline/tracked.json:

    {
      "<bench>": {
        "<metric>": "higher" | "lower",
        "<metric>": {"direction": "higher" | "lower", "tolerance": 3.0},
        ...
      },
      ...
    }

where the value says which direction is better. The plain-string form
uses --max-regression as its tolerance; the object form carries its own.
Deterministic metrics (structural counters, hit counts, byte sizes,
fsync counts) belong in the string form. Latency percentiles may be
gated with the object form at a LOOSE tolerance (e.g. 3.0 = 4x) — wide
enough to absorb runner variance, tight enough to catch an
order-of-magnitude tail blow-up. Raw throughput numbers are diffed for
the log but never gated.

A "lower" gate whose baseline is 0 has no relative tolerance. In the
string form it fails on any current value above 0: a deterministic
count of work that should not happen at all. In the object form it is
skipped, since a measured latency of 0 is only timer granularity.

A tracked metric that is missing from the current run, the baseline, or
both is a hard failure: silently dropping an instrumented number is
exactly the regression this gate exists to catch.

--update-baseline copies the current run's BENCH_*.json files over the
baseline directory (after printing the diff) instead of failing. Use it
locally after an intentional perf change, then commit the result.

Exit codes: 0 clean, 1 regression / missing tracked data, 2 usage.
"""

import argparse
import glob
import json
import os
import shutil
import sys


def load_results(directory):
    results = {}
    for path in sorted(glob.glob(os.path.join(directory, "BENCH_*.json"))):
        with open(path) as f:
            data = json.load(f)
        results[data["bench"]] = data["metrics"]
    return results


def fmt(value):
    return f"{value:.6g}"


def parse_gate(bench, metric, spec, default_tolerance, failures):
    """Returns (direction, tolerance, deterministic) or None for an
    untracked metric. Plain-string gates are the deterministic ones."""
    if spec is None:
        return None
    if isinstance(spec, str):
        direction, tolerance = spec, default_tolerance
    elif isinstance(spec, dict):
        direction = spec.get("direction")
        tolerance = spec.get("tolerance", default_tolerance)
    else:
        failures.append(f"{bench}/{metric}: bad gate spec {spec!r}")
        return None
    if direction not in ("higher", "lower"):
        failures.append(f"{bench}/{metric}: bad direction {direction!r}")
        return None
    return direction, tolerance, isinstance(spec, str)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", required=True,
                        help="directory with baseline BENCH_*.json + tracked.json")
    parser.add_argument("--current", required=True,
                        help="directory with this run's BENCH_*.json")
    parser.add_argument("--max-regression", type=float, default=0.25,
                        help="default relative regression tolerance (0.25)")
    parser.add_argument("--update-baseline", action="store_true",
                        help="copy current BENCH_*.json over the baseline "
                             "instead of failing (prints the diff first)")
    args = parser.parse_args()

    tracked_path = os.path.join(args.baseline, "tracked.json")
    if not os.path.exists(tracked_path):
        print(f"bench_diff: no {tracked_path}", file=sys.stderr)
        return 2
    with open(tracked_path) as f:
        # Keys starting with "_" are commentary, not bench names.
        tracked = {bench: metrics
                   for bench, metrics in json.load(f).items()
                   if not bench.startswith("_")}

    baseline = load_results(args.baseline)
    current = load_results(args.current)

    failures = []
    print(f"{'bench/metric':56} {'baseline':>12} {'current':>12} "
          f"{'delta':>8}  gate")
    for bench in sorted(set(baseline) | set(current) | set(tracked)):
        gated = tracked.get(bench, {})
        base_metrics = baseline.get(bench)
        cur_metrics = current.get(bench)
        if base_metrics is None and cur_metrics is not None:
            print(f"{bench:56} {'-':>12} {'(new)':>12} {'-':>8}  info")
            if gated:
                failures.append(f"{bench}: tracked but no baseline file "
                                "committed (run with --update-baseline)")
            continue
        if base_metrics is None:
            failures.append(f"{bench}: tracked but no baseline file committed")
            continue
        if cur_metrics is None:
            if gated:
                failures.append(f"{bench}: result file missing from current run")
            continue
        # Union with the tracked keys so a metric that vanished from BOTH
        # sides (e.g. renamed in the bench but not in tracked.json) still
        # fails instead of being skipped.
        for metric in sorted(set(base_metrics) | set(cur_metrics) | set(gated)):
            name = f"{bench}/{metric}"
            base = base_metrics.get(metric)
            cur = cur_metrics.get(metric)
            gate = parse_gate(bench, metric, gated.get(metric),
                              args.max_regression, failures)
            if cur is None:
                if gate is not None:
                    failures.append(f"{name}: tracked metric missing from "
                                    "current run")
                continue
            if base is None:
                print(f"{name:56} {'-':>12} {fmt(cur):>12} {'-':>8}  new")
                if gate is not None:
                    failures.append(f"{name}: tracked metric has no baseline "
                                    "value (run with --update-baseline)")
                continue
            if base != 0:
                delta = (cur - base) / base
            else:
                delta = 0.0 if cur == 0 else float("inf")
            if gate is None:
                print(f"{name:56} {fmt(base):>12} {fmt(cur):>12} "
                      f"{delta:+7.1%}  info")
                continue
            direction, tolerance, deterministic = gate
            if direction == "lower" and base == 0 and not deterministic:
                # No relative comparison is possible against a zero
                # baseline; failing a measured latency on ANY nonzero
                # current would fire on measurement granularity alone.
                print(f"{name:56} {fmt(base):>12} {fmt(cur):>12} "
                      f"{'-':>8}  zero-base")
                continue
            why = (f"{delta:+.1%}, tolerance {tolerance:.0%}, "
                   f"{direction} is better")
            if direction == "lower" and base == 0:
                # A deterministic count whose baseline is 0 (work that
                # should not happen): any nonzero current is a
                # regression, whatever the tolerance.
                regressed = cur > 0
                why = "deterministic count above its zero baseline"
            elif direction == "higher":
                regressed = cur < base * (1.0 - tolerance)
            else:
                regressed = cur > base * (1.0 + tolerance)
            verdict = "FAIL" if regressed else "ok"
            print(f"{name:56} {fmt(base):>12} {fmt(cur):>12} "
                  f"{delta:+7.1%}  {verdict}")
            if regressed:
                failures.append(f"{name}: {fmt(base)} -> {fmt(cur)} ({why})")

    if args.update_baseline:
        copied = 0
        for path in sorted(glob.glob(os.path.join(args.current,
                                                  "BENCH_*.json"))):
            shutil.copy(path, os.path.join(args.baseline,
                                           os.path.basename(path)))
            copied += 1
        print(f"\nbench_diff: baseline updated ({copied} result files "
              f"copied to {args.baseline})")
        return 0

    if failures:
        print("\nbench_diff: REGRESSIONS", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print("\nbench_diff: all tracked metrics within tolerance of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
