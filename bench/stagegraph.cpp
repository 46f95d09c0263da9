// Cross-request batching throughput: requests/sec vs engine batch_max on a
// single worker draining a backlogged queue. Every point serves the same
// request set through the same stage graph; only the batch width changes, so
// the sweep isolates what the cross-request x4 echo-PSD packing buys (ingest
// is per job at every width; results are bit-identical at every width —
// pinned by the `stagegraph` test label, not re-proved here).
//
// Prints a human-readable table by default; `--json` emits one JSON object
// for bench/run_bench.sh to embed in the repo bench report. Exits nonzero
// when batched throughput at the widest batch falls below unbatched (the
// regression gate run_bench.sh relies on), except in smoke mode where the
// shrunken cohort is too small to time meaningfully.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <future>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/stats.hpp"
#include "serve/engine.hpp"
#include "sim/probe.hpp"

using namespace earsonar;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

core::PipelineConfig causal_config() {
  core::PipelineConfig cfg;
  cfg.preprocess.zero_phase = false;  // streaming ingestion is causal
  return cfg;
}

core::DetectorModel bench_model() {
  core::DetectorModel model;
  const std::size_t dim = core::EarSonar(causal_config()).feature_dimension();
  model.scaler_mean.assign(dim, 0.0);
  model.scaler_std.assign(dim, 1.0);
  model.selected_features = {0, 1};
  model.centroids = {{-1.0, -1.0}, {1.0, 1.0}};
  model.cluster_to_state = {0, 2};
  return model;
}

audio::Waveform bench_recording() {
  sim::SubjectFactory factory(42);
  sim::ProbeConfig pc;
  pc.chirp_count = bench::smoke_mode() ? 6 : 30;
  sim::EarProbe probe(pc);
  Rng rng(7);
  return probe.record_state(factory.make(0), sim::EffusionState::kClear,
                            sim::reference_earphone(), {}, rng);
}

struct BatchPoint {
  std::size_t batch_max = 0;
  std::size_t requests = 0;
  double rps = 0.0;
  double p50_ms = 0.0;
  std::size_t batches = 0;
  std::size_t batched_requests = 0;
};

BatchPoint run_batch(const audio::Waveform& recording, std::size_t batch_max,
                     std::size_t requests) {
  serve::EngineConfig cfg;
  cfg.workers = 1;  // one worker: the sweep measures batch width, not cores
  cfg.queue_capacity = requests;
  cfg.session.pipeline = causal_config();
  // Backlogged uploads arrive whole; one ingest round per request keeps the
  // shared filter pass wide instead of paying per-chunk regrouping (the
  // chunk-size sweep lives in bench_serve). Same size for every batch_max,
  // so the sweep stays apples to apples.
  cfg.chunk_samples = recording.size();
  cfg.batch_max = batch_max;
  // The queue is backlogged (submissions outrun one worker), so batches fill
  // from queued work; a short linger only matters for the first pops.
  cfg.batch_wait_us = 2000;
  serve::ServingEngine engine(cfg);
  engine.registry().install(bench_model(), "bench");
  engine.start();

  const auto t0 = Clock::now();
  std::vector<std::future<serve::ServeResult>> futures;
  futures.reserve(requests);
  for (std::size_t i = 0; i < requests; ++i) {
    serve::ServeRequest req;
    req.id = "b" + std::to_string(i);
    req.recording = recording;
    serve::Submission sub = engine.submit(std::move(req));
    if (sub.accepted) futures.push_back(std::move(sub.result));
  }
  // The p50 comes from the exact per-request totals, not the engine's log2
  // latency histogram (whose bucket midpoints are only good to ~sqrt 2).
  std::vector<double> total_ms;
  total_ms.reserve(futures.size());
  for (auto& future : futures) total_ms.push_back(future.get().total_ms);
  const double elapsed = seconds_since(t0);
  BatchPoint point;
  point.batch_max = batch_max;
  point.requests = futures.size();
  point.rps = static_cast<double>(futures.size()) / elapsed;
  if (!total_ms.empty()) point.p50_ms = percentile(total_ms, 50.0);
  point.batches = engine.metrics().batches.load();
  point.batched_requests = engine.metrics().batched_requests.load();
  engine.stop();
  return point;
}

}  // namespace

int main(int argc, char** argv) {
  const bool json = argc > 1 && std::strcmp(argv[1], "--json") == 0;

  const audio::Waveform recording = bench_recording();
  const std::size_t requests = bench::smoke_mode() ? 8 : 512;

  // Warm-up: first-touch costs (allocator growth, FFT plan construction)
  // must not land on the sweep's first point — that point is the unbatched
  // baseline the regression gate divides by.
  (void)run_batch(recording, 1, bench::smoke_mode() ? 2 : 32);

  // Best of three runs per point: a backlogged single-worker sweep on a
  // small container is lumpy (the submitting thread competes with the
  // worker, and wide batches mean few batches per run), and the sweep's
  // purpose is the steady-state capacity ratio, not scheduling noise.
  const std::size_t reps = bench::smoke_mode() ? 1 : 3;
  std::vector<BatchPoint> sweep;
  for (std::size_t batch_max : {std::size_t{1}, std::size_t{4}, std::size_t{16},
                                std::size_t{64}}) {
    BatchPoint best;
    for (std::size_t r = 0; r < reps; ++r) {
      BatchPoint p = run_batch(recording, batch_max, requests);
      if (p.rps > best.rps) best = p;
    }
    sweep.push_back(best);
  }
  const double gain = sweep.back().rps / sweep.front().rps;

  if (json) {
    std::ostringstream out;
    out << "{\n  \"recording_seconds\": " << recording.duration_seconds()
        << ",\n  \"requests\": " << requests << ",\n  \"batch_sweep\": [";
    for (std::size_t i = 0; i < sweep.size(); ++i) {
      const BatchPoint& p = sweep[i];
      out << (i ? ", " : "") << "{\"batch_max\": " << p.batch_max
          << ", \"rps\": " << p.rps << ", \"p50_ms\": " << p.p50_ms
          << ", \"batches\": " << p.batches
          << ", \"batched_requests\": " << p.batched_requests << "}";
    }
    out << "],\n  \"batched_vs_unbatched\": " << gain << "\n}\n";
    std::fputs(out.str().c_str(), stdout);
  } else {
    bench::print_header("Cross-request batched stage graph",
                        "deployment extension (no paper figure)");
    std::printf("recording: %.0f ms of audio, %zu samples; %zu backlogged "
                "requests, 1 worker\n\n",
                recording.duration_seconds() * 1000.0, recording.size(),
                requests);
    AsciiTable table({"batch_max", "req/s", "p50 ms", "batches", "batched reqs"});
    for (const BatchPoint& p : sweep)
      table.add_row({std::to_string(p.batch_max), AsciiTable::format(p.rps, 1),
                     AsciiTable::format(p.p50_ms, 1), std::to_string(p.batches),
                     std::to_string(p.batched_requests)});
    bench::print_table(table);
    std::printf("\nbatched (batch_max 64) vs unbatched throughput: %.2fx\n", gain);
  }

  if (!bench::smoke_mode() && gain < 1.0) {
    std::fprintf(stderr,
                 "FAIL: batched throughput at batch_max 64 (%.1f req/s) is "
                 "below unbatched (%.1f req/s)\n",
                 sweep.back().rps, sweep.front().rps);
    return 1;
  }
  return 0;
}
