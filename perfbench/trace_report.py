#!/usr/bin/env python3
"""Per-layer time table from provbench span dumps.

A traced run (`run.py --trace 1`) writes one dump per workload to
`.bench_run/trace-<workload>-<seed>.json`: every call the benchmark made
into the engine, as [id, parent, op, name, start_ns, end_ns, traced]
rows. Root ops (`op.*`, parent 0) are the end-to-end operations; half of
them are traced (their calls are recorded as children) and half are not
(they give the in-run baseline for the tracing overhead).

For each dump this prints, per layer and span name: the call count,
self time (duration minus the time its own children cover) in total
and as a share of traced root time, and the mean per call. Then:

  trace.coverage_pct  share of traced root-op time covered by the root's
                      direct child spans (the rest is the benchmark's own
                      loop and counter reads);
  trace.overhead_pct  median traced root op over median untraced root op,
                      minus one, in percent.

A workload whose coverage is below COVERAGE_TOLERANCE_PCT (95%) is
flagged and the exit code is 1: layer times must add up to the
end-to-end time.

    python3 perfbench/trace_report.py .bench_run/trace-*.json
"""

import argparse
import json
import statistics
import sys

COVERAGE_TOLERANCE_PCT = 95.0

# The engine module each public call belongs to. Root self time is the
# benchmark's own work between calls.
LAYERS = {
    "ProvenanceDb::IngestAsync": "capture",
    "ProvenanceDb::Flush": "capture",
    "ProvenanceDb::Drain": "capture",
    "ProvenanceDb::BeginSnapshot": "storage snapshot + text refresh",
    "ProvenanceDb::Open": "prov",
    "ProvenanceDb::Close": "prov",
    "ProvenanceDb::Search": "search (one-shot)",
    "ProvenanceDb::Personalize": "search (one-shot)",
    "ProvenanceDb::TimeContext": "search (one-shot)",
    "ProvenanceDb::TraceDownload": "search (one-shot)",
    "ProvenanceDb::DescendantDownloads": "search (one-shot)",
    "SnapshotView::Search": "search",
    "SnapshotView::Personalize": "search",
    "SnapshotView::TimeContext": "search",
    "ProvenanceService::Ingest": "service",
    "ProvenanceService::Flush": "service",
    "ProvenanceService::WithSnapshot": "service",
}


def layer_of(name):
    if name.startswith("op."):
        return "benchmark client"
    if name.startswith("probe."):
        return "probe (outside ops)"
    return LAYERS.get(name, "other")


def load(path):
    with open(path) as f:
        return json.load(f)


def union_ns(intervals):
    """Total length covered by possibly overlapping [start, end) pairs."""
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def analyze(dump):
    """Per-span self times, coverage and overhead of one dump."""
    spans = [
        {"id": s[0], "parent": s[1], "op": s[2], "name": s[3],
         "start": s[4], "end": s[5], "traced": bool(s[6])}
        for s in dump["spans"]
    ]
    children = {}
    for s in spans:
        if s["parent"]:
            children.setdefault(s["parent"], []).append(s)

    rows = {}
    for s in spans:
        if s["name"].startswith("op.") and not s["traced"]:
            continue  # untraced roots have no children to subtract
        kids = children.get(s["id"], [])
        self_ns = (s["end"] - s["start"]) - union_ns(
            (k["start"], k["end"]) for k in kids)
        # Calls outside root ops (set-up, probes, checks) are listed
        # apart: they are not part of any end-to-end time.
        key = (bool(s["op"]), s["name"])
        row = rows.setdefault(key, {"count": 0, "self_ns": 0, "total_ns": 0})
        row["count"] += 1
        row["self_ns"] += self_ns
        row["total_ns"] += s["end"] - s["start"]

    roots = [s for s in spans if s["parent"] == 0 and s["name"].startswith("op.")]
    traced = [s for s in roots if s["traced"]]
    untraced = [s for s in roots if not s["traced"]]
    root_ns = sum(s["end"] - s["start"] for s in traced)
    covered_ns = sum(
        union_ns((k["start"], k["end"]) for k in children.get(s["id"], []))
        for s in traced)
    coverage = 100.0 * covered_ns / root_ns if root_ns else 0.0
    overhead = 0.0
    if traced and untraced:
        t = statistics.median(s["end"] - s["start"] for s in traced)
        u = statistics.median(s["end"] - s["start"] for s in untraced)
        overhead = 100.0 * (t / u - 1.0)
    return {
        "workload": dump.get("workload", "?"),
        "seed": dump.get("seed"),
        "rows": rows,
        "root_ns": root_ns,
        "traced_ops": len(traced),
        "untraced_ops": len(untraced),
        "coverage_pct": coverage,
        "overhead_pct": overhead,
    }


def print_report(result, out=sys.stdout):
    """Prints the table; returns True when coverage is within tolerance."""
    root_ns = result["root_ns"] or 1
    print(f"\n{result['workload']} (seed {result['seed']}): "
          f"{result['traced_ops']} traced ops, "
          f"{result['untraced_ops']} untraced", file=out)
    print(f"{'layer':<32} {'span':<36} {'calls':>8} {'self ms':>11} "
          f"{'% of ops':>9} {'mean us':>10}", file=out)
    ordered = sorted(result["rows"].items(),
                     key=lambda kv: (not kv[0][0], layer_of(kv[0][1]),
                                     -kv[1]["self_ns"]))
    for (in_ops, name), row in ordered:
        share = f"{100.0 * row['self_ns'] / root_ns:>8.1f}%" if in_ops else (
            f"{'outside':>9}")
        mean_us = row["total_ns"] / row["count"] / 1e3
        print(f"{layer_of(name):<32} {name:<36} {row['count']:>8} "
              f"{row['self_ns'] / 1e6:>11.1f} {share} {mean_us:>10.1f}",
              file=out)
    print(f"trace.coverage_pct {result['coverage_pct']:.2f}   "
          f"trace.overhead_pct {result['overhead_pct']:.2f}", file=out)
    ok = result["coverage_pct"] >= COVERAGE_TOLERANCE_PCT
    if not ok:
        print(f"FLAG: child spans cover {result['coverage_pct']:.1f}% of "
              f"{result['workload']}'s root ops, below the "
              f"{COVERAGE_TOLERANCE_PCT:.0f}% tolerance", file=out)
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("dumps", nargs="+", help="trace-<workload>-<seed>.json")
    args = parser.parse_args()
    ok = True
    for path in args.dumps:
        ok = print_report(analyze(load(path))) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
