// Serving-engine throughput bench: ingestion chunk-size sweep and overload
// (backpressure) behavior, in process. The engine never paces a request, so
// every figure here is compute; slot capacity under real-time pacing is a
// networked figure (bench/net.cpp, whose clients pace themselves).
//
// Prints human-readable tables by default; `--json` emits a single JSON
// object for bench/run_bench.sh to embed in the repo bench report.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <future>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/model_io.hpp"
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

// A minimal valid model so the bench exercises the full path including
// registry lookup + inference (inference is ~us; the model's weights are
// irrelevant to throughput).
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

struct ChunkPoint {
  std::size_t chunk = 0;
  double rps = 0.0;
  double mean_ms = 0.0;
};

ChunkPoint run_chunk(const audio::Waveform& recording, std::size_t chunk,
                     std::size_t requests) {
  serve::EngineConfig cfg;
  cfg.workers = 1;  // isolate per-request ingestion cost
  cfg.queue_capacity = requests;
  cfg.chunk_samples = chunk;
  cfg.session.pipeline = causal_config();
  serve::ServingEngine engine(cfg);
  engine.registry().install(bench_model(), "bench");
  engine.start();

  const auto t0 = Clock::now();
  std::vector<std::future<serve::ServeResult>> futures;
  for (std::size_t i = 0; i < requests; ++i) {
    serve::ServeRequest req;
    req.id = "c" + std::to_string(i);
    req.recording = recording;
    serve::Submission sub = engine.submit(std::move(req));
    if (sub.accepted) futures.push_back(std::move(sub.result));
  }
  for (auto& future : futures) future.get();
  const double elapsed = seconds_since(t0);
  ChunkPoint point;
  point.chunk = chunk;
  point.rps = static_cast<double>(futures.size()) / elapsed;
  point.mean_ms = engine.metrics().latency.total.mean_ms();
  engine.stop();
  return point;
}

struct OverloadResult {
  std::size_t submitted = 0;
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  std::size_t completed = 0;
};

OverloadResult run_overload(const audio::Waveform& recording) {
  serve::EngineConfig cfg;
  cfg.workers = 1;
  cfg.queue_capacity = 4;
  cfg.chunk_samples = recording.size() / 4 + 1;
  cfg.session.pipeline = causal_config();
  serve::ServingEngine engine(cfg);
  engine.registry().install(bench_model(), "bench");
  engine.start();

  OverloadResult result;
  result.submitted = 32;
  std::vector<std::future<serve::ServeResult>> futures;
  for (std::size_t i = 0; i < result.submitted; ++i) {
    serve::ServeRequest request;
    request.id = "o" + std::to_string(i);
    request.recording = recording;
    serve::Submission sub = engine.submit(std::move(request));
    if (sub.accepted) futures.push_back(std::move(sub.result));
  }
  for (auto& future : futures) future.get();
  engine.stop();
  result.accepted = engine.metrics().accepted.load();
  result.rejected = engine.metrics().rejected_queue_full.load();
  result.completed = engine.metrics().completed.load();
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const bool json = argc > 1 && std::strcmp(argv[1], "--json") == 0;

  const audio::Waveform recording = bench_recording();
  const std::size_t chunk_requests = bench::smoke_mode() ? 4 : 16;
  std::vector<ChunkPoint> chunks;
  for (std::size_t chunk : {std::size_t{64}, std::size_t{480}, std::size_t{4800},
                            recording.size()})
    chunks.push_back(run_chunk(recording, chunk, chunk_requests));

  const OverloadResult overload = run_overload(recording);

  if (json) {
    std::ostringstream out;
    out << "{\n  \"recording_seconds\": "
        << recording.duration_seconds() << ",\n  \"chunk_sweep\": [";
    for (std::size_t i = 0; i < chunks.size(); ++i) {
      const ChunkPoint& p = chunks[i];
      out << (i ? ", " : "") << "{\"chunk_samples\": " << p.chunk
          << ", \"rps\": " << p.rps << ", \"mean_ms\": " << p.mean_ms << "}";
    }
    out << "],\n  \"overload\": {\"submitted\": " << overload.submitted
        << ", \"accepted\": " << overload.accepted
        << ", \"rejected\": " << overload.rejected
        << ", \"completed\": " << overload.completed << "}\n}\n";
    std::fputs(out.str().c_str(), stdout);
    return 0;
  }

  bench::print_header("Serving engine throughput",
                      "deployment extension (no paper figure)");
  std::printf("recording: %.0f ms of audio, %zu samples\n\n",
              recording.duration_seconds() * 1000.0, recording.size());

  std::printf("ingestion chunk-size sweep (1 worker, backlogged uploads):\n");
  AsciiTable chunk_table({"chunk", "req/s", "mean ms"});
  for (const ChunkPoint& p : chunks)
    chunk_table.add_row({std::to_string(p.chunk), AsciiTable::format(p.rps, 1),
                         AsciiTable::format(p.mean_ms, 2)});
  bench::print_table(chunk_table);

  std::printf("\noverload burst (32 back-to-back requests, queue capacity 4):\n");
  std::printf("  accepted %zu, rejected %zu (explicit backpressure), "
              "completed %zu — accepted work is never dropped\n",
              overload.accepted, overload.rejected, overload.completed);
  return 0;
}
