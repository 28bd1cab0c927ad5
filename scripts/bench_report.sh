#!/usr/bin/env bash
# Run the benchmark suite and write a dated, machine-readable result file
# (BENCH_<date>.json at the repo root) -- the repo's perf trajectory record.
#
# Usage: scripts/bench_report.sh [out.json]
#   BUILD_DIR=build          build tree holding the bench binaries
#   BENCH_SECONDS=0.3        measurement window per data point
#   BENCH_THREADS=<default>  max multiprogramming level
#   BENCH_REPEATS=1          runs per bench; rows are per-point medians
#
# Each bench emits a JSON array of {bench, scheme, threads, tps, aborts,
# p50_us, p99_us} rows via --json (the latency quantiles come from the
# engine's own histograms; see docs/BENCHMARKS.md "Latency columns");
# this script merges them, taking the per-point median
# across repeats (single-run numbers on a shared/small box are noisy).
# Slab-vs-heap evidence lives in alloc_bench and ablation_design's
# heap_alloc row, not in a second run of every figure bench.
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build}"
SECONDS_PER_POINT="${BENCH_SECONDS:-0.3}"

# Benchmark numbers must come from a build with fault-injection sites
# compiled out entirely (-DMVSTORE_FAILPOINTS_ENABLED=OFF): even unarmed
# sites cost an atomic load on the log/commit hot path, and a report
# silently including that cost would poison the perf trajectory.
if ! grep -q '^MVSTORE_FAILPOINTS_ENABLED:BOOL=OFF$' \
    "${BUILD_DIR}/CMakeCache.txt" 2>/dev/null; then
  echo "bench_report.sh: ${BUILD_DIR} was not configured with" >&2
  echo "  -DMVSTORE_FAILPOINTS_ENABLED=OFF -- benchmark builds must" >&2
  echo "  compile failpoints out. Reconfigure with:" >&2
  echo "    cmake -B ${BUILD_DIR} -S . -DCMAKE_BUILD_TYPE=Release \\" >&2
  echo "      -DMVSTORE_FAILPOINTS_ENABLED=OFF && cmake --build ${BUILD_DIR} -j" >&2
  exit 2
fi
OUT="${1:-BENCH_$(date +%Y%m%d).json}"
THREAD_FLAG=()
if [[ -n "${BENCH_THREADS:-}" ]]; then
  THREAD_FLAG=(--threads "${BENCH_THREADS}")
fi

REPEATS="${BENCH_REPEATS:-1}"
tmp="$(mktemp -d)"
trap 'rm -rf "${tmp}"' EXIT

run() {
  local name="$1"; shift
  echo "== ${name}: $*" >&2
  "$@" "${THREAD_FLAG[@]}" --json "${tmp}/${name}.json" >&2
}
WINDOW=(--seconds "${SECONDS_PER_POINT}")

for ((rep = 0; rep < REPEATS; ++rep)) do
  run "alloc.${rep}"     "${BUILD_DIR}/alloc_bench" "${WINDOW[@]}"
  run "fig5.${rep}"      "${BUILD_DIR}/fig5_scalability_high" "${WINDOW[@]}"
  # Coordination cost in isolation (empty Begin/Commit loops).
  run "contention.${rep}" "${BUILD_DIR}/contention_bench" "${WINDOW[@]}"
  run "tatp.${rep}"      "${BUILD_DIR}/table4_tatp" "${WINDOW[@]}"
  # Recovery time (log replay records/sec over a replay-thread sweep);
  # takes no --seconds, sized by RECOVERY_TXNS instead. 50K keeps the 12
  # recoveries (3 schemes x 4 thread counts) proportionate to the rest of
  # the suite on a small box; rows report a rate, so they stay comparable.
  run "recovery.${rep}"  "${BUILD_DIR}/recovery_bench" \
      --txns "${RECOVERY_TXNS:-50000}"
  # Service layer: TATP as pipelined procedure calls, loopback + tcp rows.
  run "server.${rep}"    "${BUILD_DIR}/server_bench" "${WINDOW[@]}" \
      --depth "${SERVER_DEPTH:-8}"
done

python3 - "${OUT}" "${tmp}"/*.json <<'EOF'
import json, os, statistics, sys
out, *files = sys.argv[1:]
# Files are named <bench>.<rep>.json; the distinct rep suffixes are the
# repeat count (no hand-maintained bench-count constant).
reps = {os.path.basename(f).rsplit(".", 2)[1] for f in files}
samples = {}  # (bench, scheme, threads) -> [row, ...], insertion-ordered
for f in files:
    with open(f) as fh:
        for row in json.load(fh):
            key = (row["bench"], row["scheme"], row["threads"])
            samples.setdefault(key, []).append(row)
rows = []
for runs in samples.values():
    median = sorted(runs, key=lambda r: r["tps"])[len(runs) // 2]
    rows.append({**median, "runs": len(runs)})
with open(out, "w") as fh:
    json.dump(rows, fh, indent=1)
    fh.write("\n")
print(f"wrote {out}: {len(rows)} points (median of {len(reps)} runs)")
EOF
