#!/usr/bin/env bash
# Fan-out sweep: runs the encode-once fan-out benches (SimNetwork sweep in
# bench_e7, ThreadNetwork push case in bench_e2) with google-benchmark's
# JSON reporter and merges both into BENCH_fanout.json at the repo root.
# The checked-in JSON is the evidence for the perf targets in DESIGN.md
# ("Fan-out fast path"): >=5x push-mode throughput at 512 subscribers and
# flat per-delivery allocation in poll mode, both measured against the
# full-session scan the fast path replaced.  That scan no longer exists, so
# a re-run records the fast path alone.
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build}"
OUT="${OUT:-BENCH_fanout.json}"

cmake -B "$BUILD_DIR" -S . >/dev/null
cmake --build "$BUILD_DIR" -j "$(nproc)" \
  --target bench_e7_collab_traffic bench_e2_client_scalability

tmp_sim=$(mktemp) tmp_thread=$(mktemp)
trap 'rm -f "$tmp_sim" "$tmp_thread"' EXIT

"$BUILD_DIR"/bench/bench_e7_collab_traffic \
  --benchmark_filter=BM_E7_Fanout \
  --benchmark_format=json --benchmark_out="$tmp_sim" \
  --benchmark_out_format=json
"$BUILD_DIR"/bench/bench_e2_client_scalability \
  --benchmark_filter=BM_E2_PushFanout \
  --benchmark_format=json --benchmark_out="$tmp_thread" \
  --benchmark_out_format=json

python3 - "$tmp_sim" "$tmp_thread" "$OUT" <<'PY'
import json, sys

sim, thread, out = sys.argv[1:4]

def load(path):
    with open(path) as f:
        data = json.load(f)
    rows = []
    for b in data.get("benchmarks", []):
        row = {"name": b["name"]}
        for k, v in b.items():
            if k.startswith(("events_per_sec", "allocs_per_delivery",
                             "alloc_bytes_per_delivery", "delivered",
                             "deliveries_per_sec")):
                row[k] = v
        rows.append(row)
    return data.get("context", {}), rows

sim_ctx, sim_rows = load(sim)
_, thread_rows = load(thread)

result = {
    "experiment": "fanout",
    "context": {k: sim_ctx.get(k) for k in
                ("date", "host_name", "num_cpus", "mhz_per_cpu",
                 "library_build_type") if k in sim_ctx},
    "sim_network": sim_rows,
    "thread_network": thread_rows,
}
with open(out, "w") as f:
    json.dump(result, f, indent=2, sort_keys=False)
    f.write("\n")
print(f"wrote {out}")
PY
