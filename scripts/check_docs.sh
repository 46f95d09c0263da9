#!/bin/sh
# check_docs.sh REPO_ROOT [EARSONAR_BIN]
#
# Documentation consistency gate (registered as the `docs`-labeled ctest):
#   1. Every repo path referenced in README.md, DESIGN.md, and docs/*.md
#      must exist on disk.
#   2. docs/cli.md must have a `## earsonar <cmd>` section for every
#      subcommand, and must mention every --flag that the subcommand's
#      `--help` output advertises (skipped when the binary is not built).
#   3. docs/observability.md must enumerate every earsonar_serve_* metric
#      name exported by src/serve/metrics.cpp (spelled out, or as an
#      emit_counter name the prefix is added to) and src/serve/engine.cpp,
#      and every earsonar_net_* metric name exported by src/net/.
#   4. docs/robustness.md must catalog every fault point registered in the
#      source tree (each fault::point("...") call site), and every point its
#      catalog table lists must have such a call site.
#   5. docs/testing.md must catalog every differential-oracle pair registered
#      in src/check/tolerance.cpp (each add_pair(t, "...") call site).
#   6. docs/performance.md must document every top-level field bench/
#      run_bench.sh emits, every roofline counter bench/roofline.hpp
#      defines, and every benchmark context key the bench binaries set.
#   7. docs/architecture.md must name every pipeline stage the stage graph
#      exports (the EARSONAR_STAGE sites in src/pipeline/stage_graph.cpp);
#      the STAGE table of docs/observability.md's "Latency histograms"
#      section must list every such stage, and each of its rows must be one
#      of them, `queue_wait` or `total`; and docs/cli.md must mention every
#      --batch-* flag the CLI parses.
#   8. docs/workloads.md (the longitudinal screening reference) must exist
#      and be linked from README.md and docs/architecture.md.
#   9. The probe numbers DESIGN.md §1 step 1 states ("16→20 kHz, chirp
#      duration T = 0.5 ms, inter-chirp interval 5 ms, 48 kHz sample rate")
#      must equal the audio::FmcwConfig defaults in src/audio/chirp.hpp, the
#      one place the program states the probe.
set -eu

ROOT=${1:?usage: check_docs.sh REPO_ROOT [EARSONAR_BIN]}
BIN=${2:-}
fail=0

err() {
  echo "check_docs: $*" >&2
  fail=1
}

# ---- 1. path references -------------------------------------------------
DOC_FILES="$ROOT/README.md $ROOT/DESIGN.md"
for f in "$ROOT"/docs/*.md; do
  [ -f "$f" ] && DOC_FILES="$DOC_FILES $f"
done

for doc in $DOC_FILES; do
  [ -f "$doc" ] || { err "missing documentation file: $doc"; continue; }
  # Backtick-quoted repo-relative file paths, e.g. `src/obs/trace.hpp`.
  paths=$(grep -oE '`(src|apps|bench|tests|examples|docs|scripts)/[A-Za-z0-9_./-]+\.[A-Za-z0-9]+`' "$doc" \
            | tr -d '`' | sort -u) || true
  for p in $paths; do
    [ -e "$ROOT/$p" ] || err "$(basename "$doc") references missing path: $p"
  done
done

# ---- 2. CLI docs vs --help ---------------------------------------------
CLI_DOC="$ROOT/docs/cli.md"
[ -f "$CLI_DOC" ] || err "docs/cli.md is missing"

COMMANDS="simulate train diagnose inspect analyze serve serve-net loadgen longitudinal"
if [ -f "$CLI_DOC" ]; then
  for cmd in $COMMANDS; do
    grep -q "^## earsonar $cmd" "$CLI_DOC" \
      || err "docs/cli.md lacks a '## earsonar $cmd' section"
  done
fi

if [ -n "$BIN" ] && [ -x "$BIN" ] && [ -f "$CLI_DOC" ]; then
  for cmd in $COMMANDS; do
    help_out=$("$BIN" "$cmd" --help 2>&1) || err "'$cmd --help' exited non-zero"
    flags=$(printf '%s\n' "$help_out" | grep -oE -- '--[a-z][a-z-]*' | sort -u) || true
    for flag in $flags; do
      grep -qF -- "$flag" "$CLI_DOC" \
        || err "docs/cli.md does not mention '$flag' from '$cmd --help'"
    done
  done
else
  echo "check_docs: earsonar binary not available; skipping --help comparison"
fi

# ---- 3. metric names vs observability docs ------------------------------
OBS_DOC="$ROOT/docs/observability.md"
[ -f "$OBS_DOC" ] || err "docs/observability.md is missing"

if [ -f "$OBS_DOC" ]; then
  metrics=$(grep -ohE 'earsonar_serve_[a-z_]+' \
              "$ROOT/src/serve/metrics.cpp" "$ROOT/src/serve/engine.cpp" \
              "$ROOT/src/pipeline/stage_graph.cpp" \
              | sort -u) || true
  [ -n "$metrics" ] || err "no exported metric names found in src/serve/"
  # ServeMetrics::text_snapshot writes the prefix inside emit_counter.
  counters=$(grep -ohE 'emit_counter\(out, "[a-z_]+' "$ROOT/src/serve/metrics.cpp" \
               | sed 's/.*"/earsonar_serve_/' | sort -u) || true
  [ -n "$counters" ] || err "no emit_counter call sites found in src/serve/metrics.cpp"
  metrics="$metrics $counters"
  for m in $metrics; do
    grep -qF "$m" "$OBS_DOC" \
      || err "docs/observability.md does not document metric '$m'"
  done
  net_metrics=$(grep -rhoE 'earsonar_net_[a-z_]+' "$ROOT/src/net" \
                  | sort -u) || true
  [ -n "$net_metrics" ] || err "no exported metric names found in src/net/"
  for m in $net_metrics; do
    grep -qF "$m" "$OBS_DOC" \
      || err "docs/observability.md does not document metric '$m'"
  done
fi

# ---- 4. fault-point catalog vs robustness docs ---------------------------
ROBUST_DOC="$ROOT/docs/robustness.md"
[ -f "$ROBUST_DOC" ] || err "docs/robustness.md is missing"

if [ -f "$ROBUST_DOC" ]; then
  points=$(grep -rhoE 'fault::point\("[a-z_.]+"\)' "$ROOT/src" \
             | sed 's/fault::point("//; s/")//' | sort -u) || true
  [ -n "$points" ] || err "no fault::point call sites found in src/"
  for p in $points; do
    grep -qF "\`$p\`" "$ROBUST_DOC" \
      || err "docs/robustness.md does not catalog fault point '$p'"
  done
  # And the reverse: a cataloged point must exist in the source.
  doc_points=$(sed -n '/^### Fault-point catalog/,/^##* /p' "$ROBUST_DOC" \
                 | grep -oE '^\| `[a-z_.]+` \|' \
                 | sed 's/^| `//; s/` |$//' | sort -u) || true
  [ -n "$doc_points" ] || err "docs/robustness.md has no fault-point catalog table"
  for p in $doc_points; do
    printf '%s\n' "$points" | grep -qxF "$p" \
      || err "docs/robustness.md catalogs unknown fault point '$p'"
  done
fi

# ---- 5. oracle pair catalog vs testing docs ------------------------------
TESTING_DOC="$ROOT/docs/testing.md"
[ -f "$TESTING_DOC" ] || err "docs/testing.md is missing"

if [ -f "$TESTING_DOC" ]; then
  pairs=$(grep -ohE 'add_pair\(t, "[a-z0-9_.]+"' "$ROOT/src/check/tolerance.cpp" \
            | sed 's/add_pair(t, "//; s/"$//' | sort -u) || true
  [ -n "$pairs" ] || err "no add_pair call sites found in src/check/tolerance.cpp"
  for p in $pairs; do
    grep -qF "\`$p\`" "$TESTING_DOC" \
      || err "docs/testing.md does not catalog oracle pair '$p'"
  done
  # And the reverse: a documented pair must exist in the policy table.
  doc_pairs=$(grep -ohE '`(dsp|core|common|serve|audio|golden)\.[a-z0-9_.]+`' "$TESTING_DOC" \
                | tr -d '`' | sort -u) || true
  for p in $doc_pairs; do
    printf '%s\n' "$pairs" | grep -qxF "$p" \
      || err "docs/testing.md catalogs unknown oracle pair '$p'"
  done
fi

# ---- 6. bench report fields vs performance docs --------------------------
PERF_DOC="$ROOT/docs/performance.md"
[ -f "$PERF_DOC" ] || err "docs/performance.md is missing"

if [ -f "$PERF_DOC" ]; then
  # Top-level JSON fields assembled by run_bench.sh ('"field": ' printfs).
  fields=$(grep -ohE '"[a-z0-9_]+": ' "$ROOT/bench/run_bench.sh" \
             | sed 's/"//g; s/: //' | sort -u) || true
  [ -n "$fields" ] || err "no report fields found in bench/run_bench.sh"
  for f in $fields; do
    grep -qF "\`$f\`" "$PERF_DOC" \
      || err "docs/performance.md does not document report field '$f'"
  done
  # Roofline counter names defined in bench/roofline.hpp.
  counters=$(grep -ohE 'state\.counters\["[^"]+"\]' "$ROOT/bench/roofline.hpp" \
               | sed 's/.*\["//; s/"\]//' | sort -u) || true
  [ -n "$counters" ] || err "no counters found in bench/roofline.hpp"
  for c in $counters; do
    grep -qF "\`$c\`" "$PERF_DOC" \
      || err "docs/performance.md does not document counter '$c'"
  done
  # Benchmark context keys set via AddCustomContext in the bench binaries.
  keys=$(grep -rhoE 'AddCustomContext\("[a-z0-9_]+"' "$ROOT/bench" \
           | sed 's/AddCustomContext("//; s/"$//' | sort -u) || true
  for k in $keys; do
    grep -qF "\`$k\`" "$PERF_DOC" \
      || err "docs/performance.md does not document context field '$k'"
  done
fi

# ---- 7. stage-graph names vs architecture doc; batch flags vs CLI doc ----
ARCH_DOC="$ROOT/docs/architecture.md"
[ -f "$ARCH_DOC" ] || err "docs/architecture.md is missing"

if [ -f "$ARCH_DOC" ]; then
  # The one authoritative spelling of each stage name lives at the
  # EARSONAR_STAGE(...) sites in the stage-graph translation unit.
  # Skip the #define/#undef lines so the macro's formal parameter does not
  # read as a stage name.
  stages=$(grep -h 'EARSONAR_STAGE(' "$ROOT/src/pipeline/stage_graph.cpp" \
             | grep -v '^#' \
             | grep -oE 'EARSONAR_STAGE\([a-z_]+\)' \
             | sed 's/EARSONAR_STAGE(//; s/)//' | sort -u) || true
  [ -n "$stages" ] || err "no EARSONAR_STAGE sites found in src/pipeline/stage_graph.cpp"
  for s in $stages; do
    grep -qF "\`$s\`" "$ARCH_DOC" \
      || err "docs/architecture.md does not name pipeline stage '$s'"
  done
  # One vocabulary: the latency histogram table names exactly the stages,
  # plus the two latencies no stage owns.
  if [ -f "$OBS_DOC" ]; then
    latency_rows=$(sed -n '/^### Latency histograms/,/^## /p' "$OBS_DOC" \
                     | grep -oE '^\| `[a-z_]+` \|' \
                     | sed 's/^| `//; s/` |$//' | sort -u) || true
    [ -n "$latency_rows" ] || err "docs/observability.md has no latency histogram STAGE table"
    for r in $latency_rows; do
      printf '%s\nqueue_wait\ntotal\n' "$stages" | grep -qxF "$r" \
        || err "docs/observability.md latency table row '$r' is not a pipeline stage, queue_wait or total"
    done
    for s in $stages; do
      printf '%s\n' "$latency_rows" | grep -qxF "$s" \
        || err "docs/observability.md latency table lacks pipeline stage '$s'"
    done
  fi
fi

if [ -f "$CLI_DOC" ]; then
  batch_flags=$(grep -ohE -- '--batch-[a-z-]+' "$ROOT/apps/earsonar_cli.cpp" \
                  | sort -u) || true
  [ -n "$batch_flags" ] || err "no --batch-* flags found in apps/earsonar_cli.cpp"
  for flag in $batch_flags; do
    grep -qF -- "$flag" "$CLI_DOC" \
      || err "docs/cli.md does not mention batching flag '$flag'"
  done
fi

# ---- 8. longitudinal reference -------------------------------------------
WORKLOADS_DOC="$ROOT/docs/workloads.md"
[ -f "$WORKLOADS_DOC" ] || err "docs/workloads.md is missing"

if [ -f "$WORKLOADS_DOC" ]; then
  grep -q "docs/workloads.md" "$ROOT/README.md" \
    || err "README.md does not link docs/workloads.md"
  grep -q "docs/workloads.md" "$ARCH_DOC" \
    || err "docs/architecture.md does not link docs/workloads.md"
fi

# ---- 9. probe design vs DESIGN.md -----------------------------------------
CHIRP_HPP="$ROOT/src/audio/chirp.hpp"
DESIGN_DOC="$ROOT/DESIGN.md"
# The default of one FmcwConfig field, e.g. `double start_hz = 16000.0;`.
probe_default() {
  sed -n '/^struct FmcwConfig {/,/^};/p' "$CHIRP_HPP" \
    | sed -n "s/^ *double $1 = \([0-9.]*\);.*/\1/p"
}
start=$(probe_default start_hz)
bandwidth=$(probe_default bandwidth_hz)
duration=$(probe_default duration_s)
interval=$(probe_default interval_s)
rate=$(probe_default sample_rate)
if [ -z "$start" ] || [ -z "$bandwidth" ] || [ -z "$duration" ] || \
   [ -z "$interval" ] || [ -z "$rate" ]; then
  err "cannot parse the FmcwConfig defaults in src/audio/chirp.hpp"
else
  # kHz and ms as DESIGN.md writes them: 16000.0 -> 16, 0.0005 -> 0.5.
  khz() { awk -v v="$1" 'BEGIN { printf "%g", v / 1000 }'; }
  ms() { awk -v v="$1" 'BEGIN { printf "%g", v * 1000 }'; }
  want="$(khz "$start")→$(khz "$(awk -v a="$start" -v b="$bandwidth" 'BEGIN { print a + b }')") kHz"
  step=$(sed -n '/^1\. \*\*Acoustic signal collection\*\*/,/^2\. /p' "$DESIGN_DOC" | tr '\n' ' ')
  [ -n "$step" ] || err "DESIGN.md §1 has no 'Acoustic signal collection' step"
  for phrase in "$want" "T = $(ms "$duration") ms" "interval $(ms "$interval") ms" \
                "$(khz "$rate") kHz sample rate"; do
    printf '%s\n' "$step" | grep -qF -- "$phrase" \
      || err "DESIGN.md §1 step 1 does not state the FmcwConfig default '$phrase'"
  done
fi

if [ "$fail" -ne 0 ]; then
  echo "check_docs: FAILED" >&2
  exit 1
fi
echo "check_docs: OK"
