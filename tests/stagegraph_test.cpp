// Stage-graph tests: per-stage bookkeeping, a finished streaming session's
// bit-identity to EarSonar::analyze under per-chirp faults, and the serving
// engine's per-job path — every job of a dequeued batch runs alone and is
// resolved before the next starts, bit-identical to EarSonar::analyze.
// Built with the `stagegraph` ctest label so the suite can be re-run under
// ASan/TSan (scripts/check_sanitize.sh) to certify the engine's per-job path.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/fault.hpp"
#include "common/rng.hpp"
#include "core/pipeline.hpp"
#include "obs/trace.hpp"
#include "pipeline/stage_graph.hpp"
#include "serve/engine.hpp"
#include "serve/queue.hpp"
#include "serve/streaming.hpp"
#include "sim/dataset.hpp"
#include "sim/probe.hpp"

namespace earsonar {
namespace {

// Realistic screening recordings (10 chirps each); distinct seeds give each
// request distinct audio.
audio::Waveform test_recording(std::uint64_t seed) {
  sim::SubjectFactory factory(42);
  sim::ProbeConfig pc;
  pc.chirp_count = 10;
  sim::EarProbe probe(pc);
  Rng rng(seed);
  return probe.record_state(factory.make(0), sim::EffusionState::kClear,
                            sim::reference_earphone(), {}, rng);
}

core::PipelineConfig causal_config() {
  core::PipelineConfig cfg;
  cfg.preprocess.zero_phase = false;
  return cfg;
}

// Any valid detector: these tests pin bookkeeping, not diagnoses.
core::DetectorModel tiny_model() {
  core::DetectorModel model;
  const std::size_t dim = core::EarSonar(causal_config()).feature_dimension();
  model.scaler_mean.assign(dim, 0.0);
  model.scaler_std.assign(dim, 1.0);
  model.selected_features = {0, 1};
  model.centroids = {{-1.0, -1.0}, {1.0, 1.0}};
  model.cluster_to_state = {0, 2};
  return model;
}

serve::StreamingConfig causal_stream_config() {
  serve::StreamingConfig sc;
  sc.pipeline = causal_config();
  return sc;
}

// Feed one whole recording into a fresh session (single chunk; chunking
// granularity is already pinned by StreamingSessionTest).
std::unique_ptr<serve::StreamingSession> fed_session(
    const audio::Waveform& recording) {
  auto session = std::make_unique<serve::StreamingSession>(causal_stream_config());
  EXPECT_EQ(session->feed(recording.view()), serve::FeedStatus::kAccepted);
  return session;
}

void expect_bit_identical(const core::EchoAnalysis& got,
                          const core::EchoAnalysis& want) {
  ASSERT_EQ(got.events.size(), want.events.size());
  for (std::size_t i = 0; i < want.events.size(); ++i) {
    EXPECT_EQ(got.events[i].start, want.events[i].start);
    EXPECT_EQ(got.events[i].end, want.events[i].end);
  }
  ASSERT_EQ(got.echoes.size(), want.echoes.size());
  for (std::size_t i = 0; i < want.echoes.size(); ++i) {
    EXPECT_EQ(got.echoes[i].event_start, want.echoes[i].event_start);
    EXPECT_EQ(got.echoes[i].peak_index, want.echoes[i].peak_index);
    EXPECT_EQ(got.echoes[i].direct_peak_index, want.echoes[i].direct_peak_index);
  }
  ASSERT_EQ(got.mean_spectrum.psd.size(), want.mean_spectrum.psd.size());
  for (std::size_t i = 0; i < want.mean_spectrum.psd.size(); ++i)
    EXPECT_EQ(got.mean_spectrum.psd[i], want.mean_spectrum.psd[i]) << "psd bin " << i;
  ASSERT_EQ(got.features.size(), want.features.size());
  for (std::size_t i = 0; i < want.features.size(); ++i)
    EXPECT_EQ(got.features[i], want.features[i]) << "feature " << i;
  EXPECT_EQ(got.quality.degraded, want.quality.degraded);
  EXPECT_EQ(got.quality.chirps_used, want.quality.chirps_used);
  ASSERT_EQ(got.quality.drops.size(), want.quality.drops.size());
  for (std::size_t i = 0; i < want.quality.drops.size(); ++i) {
    EXPECT_EQ(got.quality.drops[i].chirp, want.quality.drops[i].chirp);
    EXPECT_EQ(got.quality.drops[i].stage, want.quality.drops[i].stage);
  }
}

// ------------------------------------------------- stage graph bookkeeping

TEST(StageGraphTest, NamesCoverEveryStage) {
  using pipeline::StageId;
  EXPECT_EQ(pipeline::kStageCount, 6u);
  EXPECT_STREQ(pipeline::stage_name(StageId::kFilter), "filter");
  EXPECT_STREQ(pipeline::stage_name(StageId::kEventDetect), "event_detect");
  EXPECT_STREQ(pipeline::stage_name(StageId::kSegment), "segment");
  EXPECT_STREQ(pipeline::stage_name(StageId::kEchoPsd), "echo_psd");
  EXPECT_STREQ(pipeline::stage_name(StageId::kFeatures), "features");
  EXPECT_STREQ(pipeline::stage_name(StageId::kInference), "inference");
  EXPECT_EQ(pipeline::stage_names().size(), pipeline::kStageCount);
}

TEST(StageGraphTest, RecordAccumulatesAndSnapshotExportsEveryStage) {
  pipeline::StageGraph graph;
  graph.record(pipeline::StageId::kEchoPsd, 2.0);
  graph.record(pipeline::StageId::kEchoPsd, 1.0);
  const pipeline::StageStats& stats =
      graph.stats(pipeline::StageId::kEchoPsd);
  EXPECT_EQ(stats.items.load(), 2u);
  EXPECT_EQ(stats.passes.load(), 2u);
  EXPECT_EQ(stats.busy_us.load(), 3000u);
  EXPECT_EQ(stats.latency.count(), 2u);

  const std::string snapshot = graph.text_snapshot();
  for (const char* stage : pipeline::stage_names()) {
    const std::string label = std::string("{stage=\"") + stage + "\"}";
    EXPECT_NE(snapshot.find("earsonar_serve_stage_items" + label),
              std::string::npos) << stage;
    EXPECT_NE(snapshot.find("earsonar_serve_stage_passes" + label),
              std::string::npos) << stage;
    EXPECT_NE(snapshot.find("earsonar_serve_stage_busy_ms" + label),
              std::string::npos) << stage;
  }
}

TEST(BoundedQueueTest, TryPopUntilReturnsItemOrTimesOut) {
  serve::BoundedQueue<int> queue(4);
  int out = 0;
  const auto past = std::chrono::steady_clock::now();
  EXPECT_FALSE(queue.try_pop_until(out, past));  // empty: gives up at deadline
  queue.try_push(7);
  EXPECT_TRUE(queue.try_pop_until(out, past));  // item ready: no wait needed
  EXPECT_EQ(out, 7);
  queue.close();
  EXPECT_FALSE(queue.try_pop_until(
      out, std::chrono::steady_clock::now() + std::chrono::seconds(1)));
}

// ------------------------------------- one session under per-chirp faults

// A session whose chirp is dropped by graceful degradation must produce the
// exact degraded result analyze() gives under the same fault, and still
// return a result.
TEST(StageGraphSessionTest, DegradedSessionMatchesAnalyze) {
  const core::EarSonar pipeline(causal_config());
  const audio::Waveform recording = test_recording(200);
  core::EchoAnalysis baseline;
  {
    fault::ScopedFault guard("pipeline.segment_chirp=nth:5");
    baseline = pipeline.analyze(recording);
  }
  ASSERT_TRUE(baseline.quality.degraded);
  ASSERT_EQ(baseline.quality.drops.size(), 1u);
  ASSERT_TRUE(baseline.usable());

  std::unique_ptr<serve::StreamingSession> session = fed_session(recording);
  fault::ScopedFault guard("pipeline.segment_chirp=nth:5");
  const core::EchoAnalysis analysis = session->finish(pipeline);
  EXPECT_TRUE(analysis.usable());
  expect_bit_identical(analysis, baseline);
}

// A transform fault inside the echo_psd pass fails the pass, not the
// request: the features stage recomputes the PSDs echo by echo, and the
// result equals the fault-free analysis bit for bit.
TEST(StageGraphSessionTest, FftExecuteFaultInEchoPsdRecomputesPerEcho) {
  const core::EarSonar pipeline(causal_config());
  const audio::Waveform recording = test_recording(350);
  const core::EchoAnalysis baseline = pipeline.analyze(recording);
  ASSERT_GT(baseline.echoes.size(), 4u);  // the fault lands in the second group

  std::unique_ptr<serve::StreamingSession> session = fed_session(recording);
  pipeline::StageGraph graph;
  fault::ScopedFault guard("fft.execute=nth:2");
  const core::EchoAnalysis analysis = session->finish(pipeline, {}, &graph);
  std::uint64_t fires = 0;
  for (const fault::PointStats& stats : fault::Registry::instance().stats())
    if (stats.name == "fft.execute") fires = stats.fires;
  EXPECT_EQ(fires, 1u);
  EXPECT_EQ(graph.stats(pipeline::StageId::kEchoPsd).passes.load(), 1u);
  expect_bit_identical(analysis, baseline);
}

// ----------------------------------------------------- engine integration

// A batching engine (batch_max > 1) runs one dequeued batch job by job:
// each job's result is ready before the next job is admitted, and each
// matches EarSonar::analyze bit for bit. The worker's own clock orders the
// two instants: job i resolves at its enqueue plus total_ms, and job i+1
// starts where its queue_wait span ends. Both come from one monotonic clock
// on one thread, so the check is an ordering, not a timing ratio.
TEST(StageGraphEngineTest, BatchedEngineMatchesPerRequestResults) {
  const core::EarSonar pipeline(causal_config());
  const std::size_t kRequests = 4;
  std::vector<audio::Waveform> recordings;
  std::vector<core::EchoAnalysis> baselines;
  for (std::size_t i = 0; i < kRequests; ++i) {
    recordings.push_back(test_recording(500 + i));
    baselines.push_back(pipeline.analyze(recordings.back()));
  }

  serve::EngineConfig cfg;
  cfg.workers = 1;  // one worker so every request rides one batch
  cfg.queue_capacity = 16;
  cfg.session.pipeline = causal_config();
  cfg.batch_max = kRequests;
  cfg.batch_wait_us = 200000;  // generous linger: the test submits fast
  serve::ServingEngine engine(cfg);
  obs::TraceRecorder& recorder = obs::TraceRecorder::instance();
  recorder.clear();
  recorder.enable();
  engine.start();
  std::vector<std::future<serve::ServeResult>> futures;
  for (std::size_t i = 0; i < kRequests; ++i) {
    serve::ServeRequest request;
    request.id = "r" + std::to_string(i);
    request.recording = recordings[i];
    serve::Submission sub = engine.submit(std::move(request));
    ASSERT_TRUE(sub.accepted) << sub.reason;
    futures.push_back(std::move(sub.result));
  }
  std::vector<serve::ServeResult> results;
  for (auto& future : futures) results.push_back(future.get());
  engine.stop();
  recorder.disable();
  std::vector<obs::TraceEvent> waits;
  for (const obs::TraceEvent& span : recorder.snapshot())
    if (span.name == "queue_wait") waits.push_back(span);
  recorder.clear();

  for (std::size_t i = 0; i < kRequests; ++i) {
    SCOPED_TRACE(results[i].id);
    EXPECT_TRUE(results[i].error.empty()) << results[i].error;
    ASSERT_TRUE(results[i].usable);
    ASSERT_EQ(results[i].features.size(), baselines[i].features.size());
    for (std::size_t f = 0; f < baselines[i].features.size(); ++f)
      EXPECT_EQ(results[i].features[f], baselines[i].features[f])
          << "feature " << f;
  }
  // One worker wake-up took all N jobs.
  EXPECT_EQ(engine.metrics().completed.load(), kRequests);
  EXPECT_EQ(engine.metrics().batches.load(), 1u);
  EXPECT_EQ(engine.metrics().batched_requests.load(), kRequests);
  EXPECT_EQ(engine.stage_graph().stats(pipeline::StageId::kEchoPsd).passes.load(),
            kRequests);

  // queue_wait spans run from enqueue to admission; submission order is
  // enqueue order. Span endpoints are whole microseconds, so allow 3 us of
  // rounding between the two instants.
  ASSERT_EQ(waits.size(), kRequests);
  std::sort(waits.begin(), waits.end(),
            [](const obs::TraceEvent& a, const obs::TraceEvent& b) { return a.ts_us < b.ts_us; });
  for (std::size_t i = 0; i + 1 < kRequests; ++i) {
    SCOPED_TRACE(results[i].id);
    const double resolved_us =
        static_cast<double>(waits[i].ts_us) + results[i].total_ms * 1000.0;
    const double next_start_us =
        static_cast<double>(waits[i + 1].ts_us + waits[i + 1].dur_us);
    EXPECT_LE(resolved_us, next_start_us + 3.0);
    // The next job's queue wait covers this job's whole run.
    EXPECT_GT(results[i + 1].queue_ms, results[i].total_ms - results[i].queue_ms);
  }

  const std::string snapshot = engine.metrics_snapshot();
  EXPECT_NE(snapshot.find("earsonar_serve_batch_max 4"), std::string::npos);
  EXPECT_NE(snapshot.find("earsonar_serve_batch_wait_us"), std::string::npos);
  EXPECT_NE(snapshot.find("earsonar_serve_batches_total"), std::string::npos);
  EXPECT_NE(snapshot.find("earsonar_serve_stage_items{stage=\"echo_psd\"}"),
            std::string::npos);
}

// Engine config whose single worker collects `batch_max` requests into one
// batch: the test submits fast, well inside the linger.
serve::EngineConfig one_batch_engine(std::size_t batch_max) {
  serve::EngineConfig cfg;
  cfg.workers = 1;
  cfg.queue_capacity = 16;
  cfg.session.pipeline = causal_config();
  cfg.batch_max = batch_max;
  cfg.batch_wait_us = 200000;
  return cfg;
}

// Ingest is per job even inside a batch: each job's chunked feed is its own
// `filter` pass and its `filter` timing, as in EarSonar::analyze.
TEST(StageGraphEngineTest, IngestIsPerJobAndTimedAsBandpass) {
  constexpr std::size_t kRequests = 4;
  serve::ServingEngine engine(one_batch_engine(kRequests));
  engine.start();
  std::vector<std::future<serve::ServeResult>> futures;
  for (std::size_t i = 0; i < kRequests; ++i) {
    serve::ServeRequest request;
    request.id = "r" + std::to_string(i);
    request.recording = test_recording(700 + i);
    serve::Submission sub = engine.submit(std::move(request));
    ASSERT_TRUE(sub.accepted) << sub.reason;
    futures.push_back(std::move(sub.result));
  }
  for (auto& future : futures) {
    const serve::ServeResult result = future.get();
    EXPECT_TRUE(result.error.empty()) << result.error;
    EXPECT_GT(result.timings[pipeline::StageId::kFilter], 0.0) << result.id;
  }
  engine.stop();
  const pipeline::StageStats& filter =
      engine.stage_graph().stats(pipeline::StageId::kFilter);
  EXPECT_EQ(filter.items.load(), kRequests);
  EXPECT_EQ(filter.passes.load(), kRequests);
}

// One vocabulary across every sink: each stage execution feeds its span, the
// request's StageTimings slot, the stage's occupancy counters and its
// latency histogram from one record, all under the six stage names.
TEST(StageGraphEngineTest, EverySinkSpeaksTheStageNames) {
  constexpr std::size_t kRequests = 4;
  serve::ServingEngine engine(one_batch_engine(kRequests));
  engine.registry().install(tiny_model(), "test");
  obs::TraceRecorder& recorder = obs::TraceRecorder::instance();
  recorder.clear();
  recorder.enable();
  engine.start();
  std::vector<std::future<serve::ServeResult>> futures;
  for (std::size_t i = 0; i < kRequests; ++i) {
    serve::ServeRequest request;
    request.id = "r" + std::to_string(i);
    request.recording = test_recording(900 + i);
    serve::Submission sub = engine.submit(std::move(request));
    ASSERT_TRUE(sub.accepted) << sub.reason;
    futures.push_back(std::move(sub.result));
  }
  for (auto& future : futures) {
    const serve::ServeResult result = future.get();
    EXPECT_TRUE(result.error.empty()) << result.error;
    EXPECT_GT(result.timings[pipeline::StageId::kEchoPsd], 0.0) << result.id;
    EXPECT_GT(result.timings[pipeline::StageId::kInference], 0.0) << result.id;
  }

  // A session fed outside the engine (the networked path) adds no filter
  // sample: the engine never ran its filter.
  const pipeline::StageStats& filter =
      engine.stage_graph().stats(pipeline::StageId::kFilter);
  EXPECT_EQ(filter.latency.count(), kRequests);
  serve::ServeRequest prefed;
  prefed.id = "prefed";
  prefed.session = fed_session(test_recording(950));
  serve::Submission sub = engine.submit(std::move(prefed));
  ASSERT_TRUE(sub.accepted) << sub.reason;
  const serve::ServeResult prefed_result = sub.result.get();
  EXPECT_TRUE(prefed_result.error.empty()) << prefed_result.error;
  EXPECT_EQ(prefed_result.timings[pipeline::StageId::kFilter], 0.0);
  EXPECT_GT(prefed_result.timings[pipeline::StageId::kEchoPsd], 0.0);
  engine.stop();
  recorder.disable();
  const std::vector<obs::TraceEvent> spans = recorder.snapshot();
  recorder.clear();
  EXPECT_EQ(filter.latency.count(), kRequests);
  EXPECT_EQ(filter.passes.load(), kRequests);

  // Every stage's histogram holds one sample per pass, and its span count
  // matches too. Every pass carries one request.
  for (std::size_t s = 0; s < pipeline::kStageCount; ++s) {
    const auto id = static_cast<pipeline::StageId>(s);
    const pipeline::StageStats& stats = engine.stage_graph().stats(id);
    SCOPED_TRACE(pipeline::stage_name(id));
    EXPECT_GT(stats.passes.load(), 0u);
    EXPECT_EQ(stats.items.load(), stats.passes.load());
    EXPECT_EQ(stats.latency.count(), stats.passes.load());
    std::size_t named = 0;
    for (const obs::TraceEvent& span : spans)
      if (span.name == pipeline::stage_name(id)) ++named;
    EXPECT_EQ(named, stats.passes.load());
  }

  // The snapshot's stage labels are exactly the stage names (plus the two
  // engine-level latencies), and no other spelling survives.
  const std::string snapshot = engine.metrics_snapshot();
  std::set<std::string> stage_labels;
  std::set<std::string> latency_labels;
  const std::regex label("^(earsonar_serve_[a-z_]+)\\{stage=\"([a-z_]+)\"");
  std::istringstream lines(snapshot);
  for (std::string line; std::getline(lines, line);) {
    std::smatch m;
    if (!std::regex_search(line, m, label)) continue;
    (m[1].str().starts_with("earsonar_serve_latency_") ? latency_labels : stage_labels)
        .insert(m[2].str());
  }
  const std::set<std::string> names(pipeline::stage_names().begin(),
                                    pipeline::stage_names().end());
  EXPECT_EQ(stage_labels, names);
  std::set<std::string> with_engine = names;
  with_engine.insert({"queue_wait", "total"});
  EXPECT_EQ(latency_labels, with_engine);
  EXPECT_EQ(snapshot.find("stage=\"bandpass\""), std::string::npos);
  EXPECT_EQ(snapshot.find("stage=\"feature\""), std::string::npos);
}

// A fired serve.stream.feed fault fails the job whose feed it hit and no
// other: with one chunk per job, nth:2 counts job-major and lands on the
// second job of the batch, while its batch-mates still match
// EarSonar::analyze bit for bit.
TEST(StageGraphEngineTest, StreamFeedFaultFailsOnlyItsJobInABatch) {
  const core::EarSonar pipeline(causal_config());
  constexpr std::size_t kRequests = 4;
  std::vector<audio::Waveform> recordings;
  std::vector<core::EchoAnalysis> baselines;
  for (std::size_t i = 0; i < kRequests; ++i) {
    recordings.push_back(test_recording(800 + i));
    baselines.push_back(pipeline.analyze(recordings.back()));
  }

  serve::EngineConfig cfg = one_batch_engine(kRequests);
  for (const audio::Waveform& recording : recordings)  // one feed per job
    cfg.chunk_samples = std::max(cfg.chunk_samples, recording.size());
  serve::ServingEngine engine(cfg);
  std::vector<serve::ServeResult> results;
  {
    fault::ScopedFault guard("serve.stream.feed=nth:2");
    engine.start();
    std::vector<std::future<serve::ServeResult>> futures;
    for (std::size_t i = 0; i < kRequests; ++i) {
      serve::ServeRequest request;
      request.id = "r" + std::to_string(i);
      request.recording = recordings[i];
      serve::Submission sub = engine.submit(std::move(request));
      ASSERT_TRUE(sub.accepted) << sub.reason;
      futures.push_back(std::move(sub.result));
    }
    for (auto& future : futures) results.push_back(future.get());
    engine.stop();
  }

  EXPECT_NE(results[1].error.find("injected fault: serve.stream.feed"),
            std::string::npos)
      << results[1].error;
  for (std::size_t i : {0u, 2u, 3u}) {
    SCOPED_TRACE(results[i].id);
    EXPECT_TRUE(results[i].error.empty()) << results[i].error;
    ASSERT_TRUE(results[i].usable);
    ASSERT_EQ(results[i].features.size(), baselines[i].features.size());
    for (std::size_t f = 0; f < baselines[i].features.size(); ++f)
      EXPECT_EQ(results[i].features[f], baselines[i].features[f])
          << "feature " << f;
  }
  EXPECT_EQ(engine.metrics().failed.load(), 1u);
  EXPECT_EQ(engine.metrics().completed.load(), kRequests - 1);
  EXPECT_EQ(engine.metrics().batches.load(), 1u);
}

// Deadline-mid-linger shed: a request whose deadline expires while the batch
// leader lingers must be shed before pipeline work, flagged
// deadline_exceeded, while fresh batch-mates complete normally.
TEST(StageGraphEngineTest, ExpiredRequestIsShedBeforeBatchWork) {
  serve::EngineConfig cfg;
  cfg.workers = 1;
  cfg.queue_capacity = 16;
  cfg.session.pipeline = causal_config();
  cfg.batch_max = 4;
  cfg.batch_wait_us = 100000;  // 100 ms linger > the 5 ms deadline below
  serve::ServingEngine engine(cfg);

  serve::ServeRequest doomed;
  doomed.id = "doomed";
  doomed.recording = test_recording(600);
  doomed.timeout_ms = 5.0;
  serve::ServeRequest fresh;
  fresh.id = "fresh";
  fresh.recording = test_recording(601);

  // The worker pops `doomed` as batch leader, then lingers 100 ms for
  // stragglers — far past the 5 ms deadline. Admission after the linger must
  // shed it without running any pipeline work.
  engine.start();
  serve::Submission doomed_sub = engine.submit(std::move(doomed));
  serve::Submission fresh_sub = engine.submit(std::move(fresh));
  ASSERT_TRUE(doomed_sub.accepted) << doomed_sub.reason;
  ASSERT_TRUE(fresh_sub.accepted) << fresh_sub.reason;

  const serve::ServeResult doomed_result = doomed_sub.result.get();
  const serve::ServeResult fresh_result = fresh_sub.result.get();
  engine.stop();

  EXPECT_TRUE(doomed_result.deadline_exceeded);
  EXPECT_FALSE(doomed_result.usable);
  EXPECT_TRUE(fresh_result.error.empty()) << fresh_result.error;
  EXPECT_TRUE(fresh_result.usable);
  EXPECT_GE(engine.metrics().deadline_exceeded.load(), 1u);
}

}  // namespace
}  // namespace earsonar
