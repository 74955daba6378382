#!/usr/bin/env python3
"""End-to-end benchmark: build the engine, run one workload, report.

    python3 perfbench/run.py --workload capture --seed 2009 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one seed
    python3 perfbench/run.py --workload recall       # a fresh seed, printed

Run it from the repository root. It configures and builds perfbench/
(the engine library from src/ plus the provbench driver) in
$CARGO_TARGET_DIR, or .bench_build when that is unset, then runs the
workload in a fresh directory under .bench_run/ and removes it
afterwards. The databases use the real file system (sync on).

provbench prints a table of every end-to-end metric with its unit and
sample count. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are the end_to_end metrics named in BENCHMARK.json; with --trace 1 they
are its per_layer metrics, and the span dump is kept as
.bench_run/trace-<workload>-<seed>.json for trace_report.py.

Without --seed a random seed is drawn; the seed used is always printed,
so a result can be re-checked on a seed nobody tuned against.
"""

import argparse
import json
import os
import secrets
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("capture", "recall", "forensics", "profiles")
# A run must end within 180 s; leave room for the build check and
# clean-up.
RUN_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds provbench; returns its path or None."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    done = subprocess.run(
        ["cmake", "--build", build_dir, "--target", "provbench", "-j", jobs],
        stdout=sys.stderr)
    if done.returncode != 0:
        return None
    return os.path.join(build_dir, "provbench")


def run_workload(binary, workload, seed, seconds, trace):
    """Runs provbench once; returns (table lines, parsed last line)."""
    run_root = os.path.join(ROOT, ".bench_run")
    work_dir = os.path.join(run_root, f"{workload}-{seed}-{os.getpid()}")
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--dir", work_dir]
    dump = os.path.join(run_root, f"trace-{workload}-{seed}.json")
    if trace:
        cmd += ["--dump", dump]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0 or not lines or not lines[-1].startswith("{"):
        raise RuntimeError(f"provbench {workload} exited {done.returncode}")
    return lines[:-1], json.loads(lines[-1]), dump


def gated_metrics(result, spec, trace, dump):
    """The metrics BENCHMARK.json names, from one provbench result."""
    metrics = {}
    if not trace:
        # A workload BENCHMARK.json does not list (capture, recall)
        # reports the gated metrics it has; a listed one must have them
        # all.
        listed = any(w["name"] == result["workload"]
                     for w in spec["workloads"])
        for m in spec["end_to_end"]:
            e2e = result["e2e"].get(m["name"])
            if e2e is None and not listed:
                continue
            if e2e is None or e2e["unit"] != m["unit"]:
                raise RuntimeError(f"{result['workload']}: no {m['name']} "
                                   f"in {m['unit']}")
            metrics[m["name"]] = {"value": e2e["value"], "unit": m["unit"]}
        return metrics
    sys.dont_write_bytecode = True  # leave no cache files in the checkout
    import trace_report  # perfbench/, next to this file
    traced = trace_report.analyze(trace_report.load(dump))
    trace_report.print_report(traced)
    layers = dict(result["layers"])
    layers["trace.coverage_pct"] = traced["coverage_pct"]
    layers["trace.overhead_pct"] = traced["overhead_pct"]
    for m in spec["per_layer"]:
        if m["name"] not in layers:
            raise RuntimeError(f"no per-layer metric {m['name']}")
        metrics[m["name"]] = {"value": layers[m["name"]], "unit": m["unit"]}
    return metrics


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=__doc__.split("\n", 2)[2])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int,
                        help="input seed (default: a random one)")
    parser.add_argument("--seconds", type=float,
                        help="timed phase (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seed = args.seed if args.seed is not None else secrets.randbelow(10**6)
    seconds = args.seconds or spec["run_seconds"]
    log(f"seed {seed}")

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                or os.path.join(ROOT, ".bench_build"))
    binary = build(build_dir)
    if binary is None:
        log("build failed")
        return 2

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for workload in workloads:
        try:
            table, result, dump = run_workload(binary, workload, seed,
                                               seconds, args.trace)
            print("\n".join(table))
            metrics = gated_metrics(result, spec, args.trace, dump)
        except (RuntimeError, subprocess.TimeoutExpired) as e:
            log(f"{workload}: {e}")
            return 1
        print(f"seed used: {seed}")
        results[workload] = {
            "correct": result["checks_ok"] and result["failed"] == 0,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": metrics,
        }
    if len(results) == 1:
        print(json.dumps(next(iter(results.values()))))
    else:
        print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
