#!/bin/sh
# check_sanitize.sh [REPO_ROOT]
#
# Sanitizer sweep over the concurrency-, fault-, and numerics-heavy test
# surface. Two fresh build trees:
#
#   1. EARSONAR_SANITIZE=address,undefined — memory errors and UB over the
#      `serve`, `stagegraph`, `fault`, `net`, `chaos`, and `longitudinal`
#      labels (engine chaos tests, the engine's per-job path and its
#      bit-identity to EarSonar::analyze inside a dequeued batch, fault
#      injection, fuzz replay, the socket front-end's loopback suite and
#      frame-decoder replay, the shard lifecycle / failure-recovery drills,
#      and the trajectory-synthesis + cohort-CUSUM suite) plus the
#      full `oracle` and `simd` labels: the
#      differential oracle drives every optimized kernel through denormals,
#      primes, and edge-case sizes, exactly where UB likes to hide, and the
#      simd suite covers the dispatch layer's intrinsics. This flavor's
#      ctest pass runs TWICE — once with EARSONAR_SIMD=native and once with
#      EARSONAR_SIMD=scalar — so both kernel sets (intrinsics and the Pack
#      emulation) execute under the sanitizers. The same two passes cover
#      both frame CRC-32 paths in the `net` label: the PCLMULQDQ fold at
#      native and the slicing-by-8 tables at scalar. The script stops before
#      building when an add_oracle_test(...) target of
#      tests/oracle/CMakeLists.txt is missing from this leg's target list.
#   2. EARSONAR_SANITIZE=thread           — data races in the worker pool,
#      metrics, registry hot-swap, the fault registry's armed fast path,
#      the `stagegraph` label (batch collection, each dequeued job run and
#      resolved one at a time on the worker while the submitter waits on
#      its future, the StageGraph's relaxed occupancy counters shared
#      across workers), and the `net` and `chaos`
#      labels (accept loop, per-connection threads, shard admission
#      counters, and the supervisor thread's restart/drain/resize machinery
#      racing live sessions — the lifecycle layer is exactly where TSan
#      earns its keep), and the `longitudinal` label (parallel trajectory
#      generation and per-slot cohort scoring, whose thread-count
#      bit-identity claim deserves a race check, not just a value check);
#      of the oracle suite only the `oracle_stream`
#      label (the
#      streaming-vs-batch equivalence pairs) runs here, since the pure
#      numeric pairs are single-threaded and O(n^2) references are slow
#      under TSan.
#
# Usage: scripts/check_sanitize.sh [repo-root]   (default: script's parent)
# Build trees live under build-san-{asan,tsan}/ and are reconfigured, not
# deleted, on re-runs.
set -eu

ROOT=${1:-$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)}
JOBS=$(nproc 2>/dev/null || echo 2)

run_flavor() {
  flavor=$1
  sanitize=$2
  labels=$3
  simd_levels=$4
  shift 4
  build="$ROOT/build-san-$flavor"
  echo "== check_sanitize: $sanitize -> $build (ctest -L '$labels') =="
  cmake -B "$build" -S "$ROOT" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DEARSONAR_SANITIZE="$sanitize" \
        -DEARSONAR_BUILD_BENCH=OFF \
        -DEARSONAR_BUILD_EXAMPLES=OFF
  # Build only the binaries the selected labels run — on a small box the
  # full test suite would double the sweep's wall clock for nothing.
  cmake --build "$build" -j "$JOBS" --target "$@"
  for simd in $simd_levels; do
    echo "== ctest -L '$labels' under EARSONAR_SIMD=$simd =="
    EARSONAR_SIMD=$simd ctest --test-dir "$build" -L "$labels" \
        --output-on-failure -j "$JOBS"
  done
}

ASAN_TARGETS="serve_test stagegraph_test fault_test wav_fuzz_replay simd_test
              net_test chaos_test frame_fuzz_replay longitudinal_test
              oracle_fft_test oracle_psd_test oracle_dsp_test oracle_stats_test
              oracle_core_test
              oracle_ml_test oracle_stream_test oracle_golden_test"

# The ASan leg runs the whole `oracle` label, but a binary it does not build
# registers only an unlabelled <name>_NOT_BUILT placeholder, which
# `ctest -L oracle` skips without a word. Refuse to run with any
# add_oracle_test(...) target of tests/oracle/CMakeLists.txt missing above.
missing=$(sed -n 's/^add_oracle_test(\([A-Za-z0-9_]*\).*/\1/p' \
              "$ROOT/tests/oracle/CMakeLists.txt" |
          while read -r target; do
            case " $(echo $ASAN_TARGETS) " in
              *" $target "*) ;;
              *) printf '%s ' "$target" ;;
            esac
          done)
if [ -n "$missing" ]; then
  echo "check_sanitize: oracle targets missing from the ASan leg: $missing" >&2
  exit 1
fi

run_flavor asan address,undefined \
           'serve|stagegraph|fault|oracle|simd|net|chaos|longitudinal' \
           'native scalar' $ASAN_TARGETS
run_flavor tsan thread \
           'serve|stagegraph|fault|oracle_stream|net|chaos|longitudinal' native \
           serve_test stagegraph_test fault_test wav_fuzz_replay net_test \
           chaos_test frame_fuzz_replay oracle_stream_test longitudinal_test

echo "check_sanitize: OK (address,undefined over serve|stagegraph|fault|oracle|simd|net|chaos|longitudinal at both SIMD levels + thread over serve|stagegraph|fault|oracle_stream|net|chaos|longitudinal)"
