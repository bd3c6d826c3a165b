#!/usr/bin/env python3
"""End-to-end benchmark of libspar.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds perfbench/ (which pulls the library in from the parent directory) into
.bench_build/perfbench, then runs the workload in a process of its own. The
last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json, from
an untraced run. With --trace 1 they are its per-layer metrics: the named
workload runs untraced and then traced (their op_p50_ms give
trace.overhead_frac), and the traced layer probes of the other two workloads
run too, each in its own process, so every per-layer metric is measured on
the input of the workload that stresses its layer. Lines before the JSON give
the same figures under each workload's own names (sparsify_job_s,
solve_p50_ms, dyn_updates_per_s, ...).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "spar_perf")
WORKLOADS = ("sparsify-dense", "solve-grid", "dynamic-turnstile")
PROBE_SECONDS = 2.0    # measured loop of the other workloads' traced probes
RUN_BUDGET_S = 170.0   # every child of one invocation ends within this
THREADS = max(1, min(4, os.cpu_count() or 1))


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def fail(msg, code=1):
    log("perfbench: " + msg)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        fail("libspar sources not found next to perfbench/; nothing to build", 2)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("cmake configure failed", 2)
    compile_ = ["cmake", "--build", BUILD, "--target", "spar_perf", "-j", str(THREADS)]
    if subprocess.run(compile_, stdout=sys.stderr, stderr=sys.stderr).returncode:
        fail("build failed", 2)


def run_child(workload, seed, seconds, trace, deadline):
    """One workload in its own process; returns its parsed JSON report."""
    workdir = os.path.join(BUILD, "work", "%s-%d" % (workload, os.getpid()))
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", "1" if trace else "0",
           "--workdir", workdir]
    env = dict(os.environ, OMP_NUM_THREADS=str(THREADS))
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              env=env, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail("%s did not finish within the run budget" % workload)
    if trace and os.path.isfile(os.path.join(workdir, "spans.jsonl")):
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        shutil.copy(os.path.join(workdir, "spans.jsonl"),
                    os.path.join(traces, "%s-seed%d.jsonl" % (workload, seed)))
    shutil.rmtree(workdir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail("%s exited with code %d" % (workload, proc.returncode))
    return json.loads(lines[-1])


def show(workload, report, label):
    log("%s (%s): %d checked, %d failed, self-test %s" % (
        workload, label, report["attempted"], report["failed"],
        "ok" if report["self_test_ok"] else "FAILED"))
    for why in report["failures"]:
        log("  failure: " + why)


def pick(report, names, workload):
    missing = [n for n in names if n not in report["metrics"]]
    if missing:
        fail("%s did not report %s" % (workload, ", ".join(missing)))
    return {n: report["metrics"][n] for n in names}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        fail("BENCHMARK.json not found", 2)
    with open(spec_path) as f:
        spec = json.load(f)
    build()
    deadline = time.monotonic() + RUN_BUDGET_S

    untraced = run_child(args.workload, args.seed, args.seconds, False, deadline)
    show(args.workload, untraced, "untraced")
    for m in untraced["named"].items():
        print("%-22s %.6g %s" % (m[0], m[1]["value"], m[1]["unit"]))
    reports = [untraced]
    if not args.trace:
        metrics = pick(untraced, [m["name"] for m in spec["end_to_end"]], args.workload)
    else:
        metrics = {}
        for workload in WORKLOADS:
            seconds = args.seconds if workload == args.workload else PROBE_SECONDS
            traced = run_child(workload, args.seed, seconds, True, deadline)
            show(workload, traced, "traced")
            reports.append(traced)
            metrics.update(traced["metrics"])
            if workload == args.workload:
                base = untraced["metrics"]["op_p50_ms"]["value"]
                overhead = traced["metrics"]["trace.op_p50_ms"]["value"] / base - 1.0
        metrics["trace.overhead_frac"] = {"value": overhead, "unit": "ratio"}
        metrics = pick({"metrics": metrics}, [m["name"] for m in spec["per_layer"]],
                       args.workload)

    result = {
        "correct": all(r["correct"] for r in reports),
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
