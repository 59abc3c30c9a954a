#!/usr/bin/env bash
# Nightly smoke: run every bench binary at a small scale so regressions in
# any figure/table reproduction surface quickly. Usage:
#   bench/run_all.sh [build-dir]
# Env:
#   STRUCTRIDE_SCALE      sweep scale (default 0.05)
#   STRUCTRIDE_ALGOS      algorithm filter passthrough
#   STRUCTRIDE_BENCH_SET  all | sweep | micro (default all)
#   STRUCTRIDE_SHARDS     geo-shard count for the sweep benches (default 1;
#                         see DESIGN.md §12)
#   STRUCTRIDE_JSON_DIR   where BENCH_<name>.json results land
#                         (default <build-dir>/bench_json)
#   STRUCTRIDE_CONC_SHARDS  0 forces the serial shard loop in every bench
#                         (the differential reference for the compare gate)
#   STRUCTRIDE_COMPARE_DIR  baseline BENCH json dir: after the sweep,
#                         bench/compare_bench.py diffs it against
#                         STRUCTRIDE_JSON_DIR and fails the run on parity
#                         drift or timing regression; extra flags via
#                         STRUCTRIDE_COMPARE_ARGS (e.g. --min-speedup)
#   STRUCTRIDE_SVC_DATASETS / STRUCTRIDE_SVC_SHARDS  the sustained-qps
#                         service bench's grid (smoke defaults: NYC, 1);
#                         SLO via STRUCTRIDE_SLO_P99_MS (default 250 ms)
#   STRUCTRIDE_SNAPSHOT_PATH  where abl_graph_import writes/reuses its
#                         binary graph snapshot (default: inside the json
#                         dir, so the smoke never dirties the source tree)
set -u

BUILD_DIR="${1:-build}"
export STRUCTRIDE_SCALE="${STRUCTRIDE_SCALE:-0.05}"
BENCH_SET="${STRUCTRIDE_BENCH_SET:-all}"
export STRUCTRIDE_JSON_DIR="${STRUCTRIDE_JSON_DIR:-$BUILD_DIR/bench_json}"

# Validate the shard knob here so a typo fails the whole sweep loudly
# instead of every binary silently falling back to its default.
if [ -n "${STRUCTRIDE_SHARDS:-}" ]; then
  case "$STRUCTRIDE_SHARDS" in
    ''|*[!0-9]*|0)
      echo "warning: STRUCTRIDE_SHARDS='$STRUCTRIDE_SHARDS' is not a positive integer; ignoring (running single-shard)" >&2
      unset STRUCTRIDE_SHARDS
      ;;
    *)
      export STRUCTRIDE_SHARDS
      ;;
  esac
fi

if [ ! -d "$BUILD_DIR" ]; then
  echo "error: build dir '$BUILD_DIR' not found (run cmake first)" >&2
  exit 2
fi
mkdir -p "$STRUCTRIDE_JSON_DIR"
# Keep the import ablation's snapshot out of tests/data/ by default.
export STRUCTRIDE_SNAPSHOT_PATH="${STRUCTRIDE_SNAPSHOT_PATH:-$STRUCTRIDE_JSON_DIR/graph.snap}"

SWEEP_BENCHES="
fig8_vary_vehicles fig9_vary_requests fig10_vary_deadline
fig11_vary_capacity fig12_vary_penalty fig13_vary_batch fig14_memory
fig15_cainiao fig16_capacity_sigma fig17_vary_sigma
table5_angle_pruning_cainiao table6_angle_pruning
abl_cancellations abl_incremental_sharegraph abl_parallel_scaling
abl_scenarios abl_proposal_order abl_sharding
abl_angle_expectation abl_insertion_order abl_structure_metrics
abl_graph_import
"
MICRO_BENCHES="
micro_insertion micro_shortest_path micro_grouping
micro_graph_analysis micro_sharegraph abl_sp_backends
"

failures=0
ran=0
summary=""  # one "name<TAB>status<TAB>exit-code" line per bench

note() {
  summary="${summary}$(printf '%s\t%s\t%s' "$1" "$2" "$3")
"
}

if [ "$BENCH_SET" != "micro" ]; then
  for bench in $SWEEP_BENCHES; do
    exe="$BUILD_DIR/$bench"
    if [ ! -x "$exe" ]; then
      echo "missing: $bench" >&2
      failures=$((failures + 1))
      note "$bench" MISSING -
      continue
    fi
    echo "=== $bench (scale $STRUCTRIDE_SCALE) ==="
    if "$exe"; then
      note "$bench" ok 0
    else
      rc=$?
      echo "FAILED: $bench (exit $rc)" >&2
      failures=$((failures + 1))
      note "$bench" FAIL "$rc"
    fi
    ran=$((ran + 1))
  done
fi

if [ "$BENCH_SET" != "micro" ]; then
  # Service-mode sustained-qps probe (DESIGN.md §13). Smoke defaults: one
  # city, single-shard, SARD-only — the full grid is a nightly-perf job,
  # not a smoke gate. Callers override via the STRUCTRIDE_SVC_* knobs.
  exe="$BUILD_DIR/svc_sustained_qps"
  if [ ! -x "$exe" ]; then
    echo "missing: svc_sustained_qps" >&2
    failures=$((failures + 1))
    note "svc_sustained_qps" MISSING -
  else
    echo "=== svc_sustained_qps (scale $STRUCTRIDE_SCALE) ==="
    if STRUCTRIDE_SVC_DATASETS="${STRUCTRIDE_SVC_DATASETS:-NYC}" \
       STRUCTRIDE_SVC_SHARDS="${STRUCTRIDE_SVC_SHARDS:-1}" \
       STRUCTRIDE_ALGOS="${STRUCTRIDE_ALGOS:-SARD}" \
       "$exe"; then
      note "svc_sustained_qps" ok 0
    else
      rc=$?
      echo "FAILED: svc_sustained_qps (exit $rc)" >&2
      failures=$((failures + 1))
      note "svc_sustained_qps" FAIL "$rc"
    fi
    ran=$((ran + 1))
  fi

  # Grid-sweep generator smoke: exercises the cell runner, the merge and
  # the Markdown writer on a tiny grid (results land under the json dir).
  echo "=== sweep.py --smoke ==="
  if python3 "$(dirname "$0")/sweep.py" --smoke --bindir "$BUILD_DIR" \
       --out "$STRUCTRIDE_JSON_DIR/sweep_smoke"; then
    note "sweep.py" ok 0
  else
    rc=$?
    echo "FAILED: sweep.py --smoke (exit $rc)" >&2
    failures=$((failures + 1))
    note "sweep.py" FAIL "$rc"
  fi
  ran=$((ran + 1))
fi

if [ "$BENCH_SET" != "sweep" ]; then
  for bench in $MICRO_BENCHES; do
    exe="$BUILD_DIR/$bench"
    if [ ! -x "$exe" ]; then
      echo "skipping $bench (not built; Google Benchmark missing?)" >&2
      note "$bench" skipped -
      continue
    fi
    echo "=== $bench ==="
    # Google Benchmark's native JSON writer covers the micro benches;
    # micro_shortest_path additionally writes its latency-study JSON via
    # STRUCTRIDE_JSON_DIR.
    if "$exe" --benchmark_min_time=0.01 \
         --benchmark_out="$STRUCTRIDE_JSON_DIR/BENCH_${bench}.json" \
         --benchmark_out_format=json; then
      note "$bench" ok 0
    else
      rc=$?
      echo "FAILED: $bench (exit $rc)" >&2
      failures=$((failures + 1))
      note "$bench" FAIL "$rc"
    fi
    ran=$((ran + 1))
  done
fi

# Optional baseline diff: every outcome field must be bitwise identical and
# running times within tolerance (see bench/compare_bench.py --help).
if [ -n "${STRUCTRIDE_COMPARE_DIR:-}" ]; then
  echo "=== compare_bench ($STRUCTRIDE_COMPARE_DIR vs $STRUCTRIDE_JSON_DIR) ==="
  # shellcheck disable=SC2086 — COMPARE_ARGS is intentionally word-split.
  if python3 "$(dirname "$0")/compare_bench.py" \
       "$STRUCTRIDE_COMPARE_DIR" "$STRUCTRIDE_JSON_DIR" \
       ${STRUCTRIDE_COMPARE_ARGS:-}; then
    note "compare_bench" ok 0
  else
    rc=$?
    echo "FAILED: compare_bench (exit $rc)" >&2
    failures=$((failures + 1))
    note "compare_bench" FAIL "$rc"
  fi
fi

echo
echo "run_all summary (bench / status / exit code):"
printf '%s' "$summary" | while IFS="$(printf '\t')" read -r name status rc; do
  printf '  %-32s %-8s %s\n' "$name" "$status" "$rc"
done
echo "run_all: $ran benches, $failures failures, results in $STRUCTRIDE_JSON_DIR"
[ "$failures" -eq 0 ]
