#!/usr/bin/env python3
"""Portal benchmark entry point.

    python3 perfbench/run.py --workload steer --seed 7 --seconds 30 --trace 0

Builds perfbench/ (and with it the middleware in src/) into .bench_build,
runs one pass of portal_bench, and prints as its last stdout line the
result object: correct, attempted, failed and the metrics named in
BENCHMARK.json (end-to-end ones with --trace 0, per-layer ones with
--trace 1).  A traced invocation splits --seconds between an untraced and
a traced pass of the same seed, so the tracing overhead and the ledger's
coverage of the untraced latency can be reported.  Full results, the
Chrome trace and the ledger land in .bench_out/.
"""

import argparse
import json
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_TIMEOUT_S = 880
RUN_TIMEOUT_S = 75


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(1)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    bdir = build_dir()
    os.makedirs(bdir, exist_ok=True)
    log_path = os.path.join(bdir, "build.log")
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", bdir, "--target", "portal_bench",
                  "-j", str(os.cpu_count() or 1)])
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    with open(log_path, "a") as log:
        for cmd in steps:
            left = deadline - time.monotonic()
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    timeout=max(left, 1)).returncode
            except (OSError, subprocess.TimeoutExpired) as e:
                fail("build step failed: %s (%s)" % (" ".join(cmd), e))
            if rc != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail("build failed; see " + log_path)
    exe = os.path.join(bdir, "portal_bench")
    if not os.path.exists(exe):
        fail("portal_bench missing after build")
    return exe


def run_pass(exe, workload, seed, seconds, trace):
    out_dir = os.path.join(ROOT, ".bench_out",
                           "%s-s%d-t%d" % (workload, seed, 1 if trace else 0))
    os.makedirs(out_dir, exist_ok=True)
    cmd = [exe, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--out", out_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("portal_bench timed out")
    sys.stderr.write(proc.stderr)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if not lines:
        fail("portal_bench printed no result (exit %d)" % proc.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("portal_bench printed no JSON result")
    with open(os.path.join(out_dir, "result.json"), "w") as f:
        json.dump(result, f, indent=1, sort_keys=True)
    if proc.returncode not in (0, 1):
        fail("portal_bench exited with %d" % proc.returncode)
    return result


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload " + args.workload)

    exe = build()
    # A traced call splits --seconds between an untraced and a traced pass
    # of the same seed; their difference is the tracing overhead.
    seconds = max(args.seconds // 2, 5) if args.trace else args.seconds
    base = run_pass(exe, args.workload, args.seed, seconds, False)
    passes = [base]
    values = dict(base["end_to_end"])
    if args.trace:
        traced = run_pass(exe, args.workload, args.seed, seconds, True)
        passes.append(traced)
        values = dict(traced["per_layer"])
        e2e, te2e = base["end_to_end"], traced["end_to_end"]
        values["trace.overhead_op_p50_ms"] = te2e["op_p50_ms"] - e2e["op_p50_ms"]
        values["trace.overhead_cpu_us_per_op"] = (
            te2e["sut_cpu_us_per_op"] - e2e["sut_cpu_us_per_op"])
        op_p50_us = e2e["op_p50_ms"] * 1e3
        age_p50_us = e2e["event_age_p50_ms"] * 1e3
        values["ledger.op.coverage"] = (
            values.get("ledger.op.sum_us", 0) / op_p50_us if op_p50_us else 0)
        values["ledger.event.coverage"] = (
            values.get("ledger.event.sum_us", 0) / age_p50_us if age_p50_us else 0)
        for k, v in sorted(values.items()):
            if k.startswith(("ledger.", "trace.")):
                print("%-34s %.4f" % (k, v), file=sys.stderr)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        if m["name"] not in values:
            fail("metric %s missing from the run" % m["name"])
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    correct = all(p["correct"] for p in passes)
    for p in passes:
        for problem in p["problems"]:
            print("check failed: " + problem, file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(int(p["attempted"]) for p in passes),
        "failed": sum(int(p["failed"]) for p in passes),
        "metrics": metrics,
    }))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
