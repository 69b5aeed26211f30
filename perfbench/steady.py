#!/usr/bin/env python3
"""Steadiness check for the portal benchmark.

    python3 perfbench/steady.py run --seeds 1-10 --out .bench_out/set1.json
    python3 perfbench/steady.py run --workloads fanout --seeds 1-5
    python3 perfbench/steady.py compare .bench_out/set1.json .bench_out/set2.json

`run` runs perfbench/run.py untraced once per seed and workload (run
length from BENCHMARK.json unless --seconds is given).  For each workload
it prints every run's host steal ratio, the SUT's thread -> CPU placement
and end-to-end figures, then for each end-to-end metric the median, the
quartiles (statistics.quantiles(n=4)) and the spread (q3 - q1) / median
against the metric's bound.  With --out it saves the runs as JSON.

`compare` reads two saved sets and prints, per workload and end-to-end
metric, both medians and how much worse the second is, as a share of the
first, against the bound.  It exits 1 if any spread or any worsening
exceeds its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def one_run(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if proc.returncode != 0 or not lines:
        return None
    summary = json.loads(lines[-1])
    path = os.path.join(ROOT, ".bench_out", "%s-s%d-t0" % (workload, seed),
                        "result.json")
    with open(path) as f:
        full = json.load(f)
    return {
        "seed": seed,
        "correct": summary["correct"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {k: v["value"] for k, v in summary["metrics"].items()},
        "steal": full["per_layer"].get("host.steal_ratio", 0.0),
        "placement": full.get("placement", ""),
    }


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / statistics.median(values)


def report(spec, runs_by_workload):
    ok = True
    for workload, runs in runs_by_workload.items():
        print("== %s: %d runs" % (workload, len(runs)))
        placements = sorted({r["placement"] for r in runs})
        print("   placement%s: %s" % (
            "" if len(placements) == 1 else " (DIFFERS between runs)",
            " | ".join(placements)))
        names = [m["name"] for m in spec["end_to_end"]]
        print("   %-6s %-7s %s" % ("seed", "steal", " ".join(
            "%12s" % n[:12] for n in names)))
        for r in runs:
            print("   %-6d %-7.4f %s" % (r["seed"], r["steal"], " ".join(
                "%12.5g" % r["metrics"][n] for n in names)))
        if len(runs) < 2:
            continue
        for m in spec["end_to_end"]:
            vals = [r["metrics"][m["name"]] for r in runs]
            med, q1, q3, s = spread(vals)
            flag = "ok" if s <= m["bound"] / 3 else (
                "within bound" if s <= m["bound"] else "TOO WIDE")
            if s > m["bound"]:
                ok = False
            print("   %-22s median %-11.5g q1 %-11.5g q3 %-11.5g spread %.3f"
                  " (bound %.2f) %s" % (m["name"], med, q1, q3, s, m["bound"],
                                        flag))
    return ok


def compare(spec, first, second):
    ok = True
    for workload in first:
        if workload not in second:
            continue
        print("== %s" % workload)
        for m in spec["end_to_end"]:
            a = statistics.median(r["metrics"][m["name"]] for r in first[workload])
            b = statistics.median(r["metrics"][m["name"]] for r in second[workload])
            worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
            flag = "ok" if worse <= m["bound"] else "WORSE THAN BOUND"
            if worse > m["bound"]:
                ok = False
            print("   %-22s %-11.5g -> %-11.5g worse by %+.3f (bound %.2f) %s"
                  % (m["name"], a, b, worse, m["bound"], flag))
    return ok


def main():
    ap = argparse.ArgumentParser()
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("--workloads", default="")
    r.add_argument("--seeds", default="1-10")
    r.add_argument("--seconds", type=int, default=0)
    r.add_argument("--out", default="")
    c = sub.add_parser("compare")
    c.add_argument("first")
    c.add_argument("second")
    args = ap.parse_args()
    spec = load_spec()

    if args.cmd == "compare":
        sets = []
        for path in (args.first, args.second):
            with open(path) as f:
                sets.append(json.load(f))
        ok = report(spec, sets[0]) & report(spec, sets[1])
        ok = compare(spec, sets[0], sets[1]) and ok
        sys.exit(0 if ok else 1)

    workloads = ([w for w in args.workloads.split(",") if w] or
                 [w["name"] for w in spec["workloads"]])
    seconds = args.seconds or spec["run_seconds"]
    runs = {}
    for w in workloads:
        runs[w] = []
        for seed in parse_seeds(args.seeds):
            res = one_run(w, seed, seconds)
            if res is None:
                print("%s seed %d: run failed" % (w, seed), file=sys.stderr)
                sys.exit(1)
            runs[w].append(res)
            print("%s seed %d: steal %.4f %s" % (w, seed, res["steal"], json.dumps(
                {k: round(v, 5) for k, v in res["metrics"].items()})),
                file=sys.stderr)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(runs, f, indent=1)
    sys.exit(0 if report(spec, runs) else 1)


if __name__ == "__main__":
    main()
