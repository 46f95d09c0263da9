#!/usr/bin/env sh
# Runs the latency-critical google-benchmark binaries and assembles one JSON
# report. The committed BENCH_latency.json at the repo root is the baseline
# this script's output is compared against.
#
# Usage: bench/run_bench.sh [--allow-debug] [build-dir] [output.json]
#
# The build directory must be a Release (or RelWithDebInfo/MinSizeRel)
# configuration: debug-build numbers are meaningless as a baseline and the
# script refuses to record them unless --allow-debug is given explicitly.
set -eu

ALLOW_DEBUG=0
if [ "${1:-}" = "--allow-debug" ]; then
  ALLOW_DEBUG=1
  shift
fi

BUILD_DIR=${1:-build}
OUT=${2:-BENCH_latency.json}
MIN_TIME=${EARSONAR_BENCH_MIN_TIME:-0.4}

# Release gate: parse the configured build type out of CMakeCache.txt. (The
# google-benchmark *library* may itself be a debug build — that only affects
# the library's own warning banner, not the timed code; the gate checks the
# repo's CMAKE_BUILD_TYPE, which is what compiles the kernels under test.)
BUILD_TYPE=unknown
if [ -f "$BUILD_DIR/CMakeCache.txt" ]; then
  BUILD_TYPE=$(sed -n 's/^CMAKE_BUILD_TYPE:[^=]*=//p' "$BUILD_DIR/CMakeCache.txt")
  [ -n "$BUILD_TYPE" ] || BUILD_TYPE=unspecified
fi
case "$BUILD_TYPE" in
  Release|RelWithDebInfo|MinSizeRel) ;;
  *)
    if [ "$ALLOW_DEBUG" -eq 1 ]; then
      echo "warning: benchmarking a '$BUILD_TYPE' build (--allow-debug)" >&2
    else
      echo "error: $BUILD_DIR is a '$BUILD_TYPE' build; benchmark baselines" >&2
      echo "  must come from -DCMAKE_BUILD_TYPE=Release. Re-run with" >&2
      echo "  --allow-debug to record non-Release numbers anyway." >&2
      exit 1
    fi
    ;;
esac

for bin in bench_table2_latency bench_fft_plan bench_kernels bench_serve \
           bench_net bench_longitudinal; do
  if [ ! -x "$BUILD_DIR/bench/$bin" ]; then
    echo "error: $BUILD_DIR/bench/$bin not built (cmake --build $BUILD_DIR --target $bin)" >&2
    exit 1
  fi
done

TMP_DIR=$(mktemp -d)
trap 'rm -rf "$TMP_DIR"' EXIT

echo "running bench_table2_latency ..." >&2
"$BUILD_DIR/bench/bench_table2_latency" \
    --benchmark_min_time="$MIN_TIME" \
    --benchmark_format=json >"$TMP_DIR/table2.json.raw"
echo "running bench_fft_plan ..." >&2
"$BUILD_DIR/bench/bench_fft_plan" \
    --benchmark_min_time="$MIN_TIME" \
    --benchmark_format=json >"$TMP_DIR/fft_plan.json.raw"
echo "running bench_kernels ..." >&2
"$BUILD_DIR/bench/bench_kernels" \
    --benchmark_min_time="$MIN_TIME" \
    --benchmark_format=json >"$TMP_DIR/kernels.json.raw"
echo "running bench_serve ..." >&2
"$BUILD_DIR/bench/bench_serve" --json >"$TMP_DIR/serve.json"
echo "running bench_net ..." >&2
"$BUILD_DIR/bench/bench_net" --json >"$TMP_DIR/net.json"
# bench_longitudinal exits nonzero (failing this script via set -e) when the
# deterministic detector-quality gate on the reference cohort fails.
echo "running bench_longitudinal ..." >&2
"$BUILD_DIR/bench/bench_longitudinal" --json >"$TMP_DIR/longitudinal.json"

# bench_table2_latency prints a human banner line before benchmark::Initialize
# takes over; strip everything before the first '{' so the remainder is JSON.
for f in table2 fft_plan kernels; do
  sed -n '/^{/,$p' "$TMP_DIR/$f.json.raw" >"$TMP_DIR/$f.json"
done

# Schema v5: drops the `stagegraph` section (the cross-request batching
# sweep, req/s vs engine batch_max) with the cross-request pass it measured.
# v4 added the `longitudinal` section (trajectory synthesis + cohort-CUSUM
# analysis throughput and the deterministic detection-quality numbers, see
# docs/performance.md). v3 added the `stagegraph` section. v2 added the
# per-kernel roofline section (`kernels`, whose entries carry analytic
# "GFLOP/s" and "GB/s" counters), the repo build type the numbers came from,
# and the earsonar_simd_arch / earsonar_simd_level context fields inside
# each google-benchmark report.
{
  printf '{\n"schema": "earsonar-bench-v5",\n'
  printf '"build_type": "%s",\n' "$BUILD_TYPE"
  printf '"table2_latency": '
  cat "$TMP_DIR/table2.json"
  printf ',\n"fft_plan": '
  cat "$TMP_DIR/fft_plan.json"
  printf ',\n"kernels": '
  cat "$TMP_DIR/kernels.json"
  printf ',\n"serve": '
  cat "$TMP_DIR/serve.json"
  printf ',\n"net": '
  cat "$TMP_DIR/net.json"
  printf ',\n"longitudinal": '
  cat "$TMP_DIR/longitudinal.json"
  printf '}\n'
} >"$OUT"

echo "wrote $OUT" >&2

# Optional trace capture: set EARSONAR_BENCH_TRACE=path/to/trace.json to also
# profile one full pipeline run (spans documented in docs/observability.md).
if [ -n "${EARSONAR_BENCH_TRACE:-}" ]; then
  if [ -x "$BUILD_DIR/apps/earsonar" ]; then
    echo "capturing pipeline trace ..." >&2
    "$BUILD_DIR/apps/earsonar" analyze --simulate \
        --trace-out "$EARSONAR_BENCH_TRACE" --log-level warn >/dev/null
    echo "wrote $EARSONAR_BENCH_TRACE" >&2
  else
    echo "warning: $BUILD_DIR/apps/earsonar not built; skipping trace capture" >&2
  fi
fi
