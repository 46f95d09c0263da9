// Stage-graph batching tests: finishing N streaming sessions as one batch
// must be bit-identical to EarSonar::analyze of each whole recording at
// every batch size — including ragged lane tails, degraded lane-mates, and
// the forced batch-of-one fallback.
// Built with the `stagegraph` ctest label so the suite can be re-run under
// ASan/TSan (scripts/check_sanitize.sh) to certify the batched path.
#include <gtest/gtest.h>

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
// "request" distinct audio so lane crosstalk would be visible.
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
  graph.record(pipeline::StageId::kEchoPsd, 2.0, 8, true);
  graph.record(pipeline::StageId::kEchoPsd, 1.0, 1, false);
  const pipeline::StageStats& stats =
      graph.stats(pipeline::StageId::kEchoPsd);
  EXPECT_EQ(stats.items.load(), 9u);
  EXPECT_EQ(stats.passes.load(), 2u);
  EXPECT_EQ(stats.batched_items.load(), 8u);  // only the batched pass counts
  EXPECT_EQ(stats.busy_us.load(), 3000u);

  const std::string snapshot = graph.text_snapshot();
  for (const char* stage : pipeline::stage_names()) {
    const std::string label = std::string("{stage=\"") + stage + "\"}";
    EXPECT_NE(snapshot.find("earsonar_serve_stage_items" + label),
              std::string::npos) << stage;
    EXPECT_NE(snapshot.find("earsonar_serve_stage_passes" + label),
              std::string::npos) << stage;
    EXPECT_NE(snapshot.find("earsonar_serve_stage_batched_items" + label),
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

// --------------------------------------- batched bit-identity, all sizes

// One batch of N sessions through StreamingSession::finish must match
// EarSonar::analyze of each recording bit for bit. 10-chirp recordings make
// every size here a ragged x4 case within each request (10 % 4 != 0); size 3
// is ragged in request count too.
TEST(StageGraphBatchTest, FinishManyBitIdenticalAtBatchSizes) {
  const core::EarSonar pipeline(causal_config());
  const std::size_t kDistinct = 6;
  std::vector<audio::Waveform> recordings;
  std::vector<core::EchoAnalysis> baselines;
  for (std::size_t i = 0; i < kDistinct; ++i) {
    recordings.push_back(test_recording(100 + i));
    baselines.push_back(pipeline.analyze(recordings.back()));
    ASSERT_TRUE(baselines.back().usable());
  }

  const std::size_t sizes[] = {1, 2, 3, 4, 64};
  for (std::size_t n : sizes) {
    SCOPED_TRACE("batch size " + std::to_string(n));
    std::vector<std::unique_ptr<serve::StreamingSession>> sessions;
    std::vector<serve::StreamingSession*> ptrs;
    for (std::size_t i = 0; i < n; ++i) {
      sessions.push_back(fed_session(recordings[i % kDistinct]));
      ptrs.push_back(sessions.back().get());
    }
    std::vector<CancelToken> cancels(n);
    pipeline::StageGraph graph;
    std::vector<core::AnalysisOutcome> outcomes =
        serve::StreamingSession::finish(pipeline, ptrs, cancels, &graph);
    ASSERT_EQ(outcomes.size(), n);
    for (std::size_t i = 0; i < n; ++i) {
      SCOPED_TRACE("request " + std::to_string(i));
      ASSERT_TRUE(outcomes[i].ok());
      expect_bit_identical(outcomes[i].analysis, baselines[i % kDistinct]);
    }
    EXPECT_EQ(graph.fallbacks(), 0u);
    // One shared echo_psd pass carried every request.
    const pipeline::StageStats& psd = graph.stats(pipeline::StageId::kEchoPsd);
    EXPECT_EQ(psd.passes.load(), 1u);
    EXPECT_EQ(psd.items.load(), n);
    EXPECT_EQ(psd.batched_items.load(), n > 1 ? n : 0u);
  }
}

// A request whose chirp is dropped by graceful degradation mid-batch must
// produce the exact degraded result analyze() gives, and its lane-mates
// must be untouched. The fault counter is global and the batch runs
// per-request segmentation in submission order, so the same `nth:` policy
// lands on the same chirp of the same request either way.
TEST(StageGraphBatchTest, DegradedRequestMatchesUnbatchedAndSparesLaneMates) {
  const core::EarSonar pipeline(causal_config());
  const std::size_t kRequests = 3;
  std::vector<audio::Waveform> recordings;
  for (std::size_t i = 0; i < kRequests; ++i)
    recordings.push_back(test_recording(200 + i));

  // nth:15 fires on the 15th segmented chirp overall — inside request 1
  // (requests hold 10 chirps each).
  std::vector<core::EchoAnalysis> baselines;
  {
    fault::ScopedFault guard("pipeline.segment_chirp=nth:15");
    for (const audio::Waveform& recording : recordings)
      baselines.push_back(pipeline.analyze(recording));
  }
  ASSERT_FALSE(baselines[0].quality.degraded);
  ASSERT_TRUE(baselines[1].quality.degraded);
  ASSERT_EQ(baselines[1].quality.drops.size(), 1u);
  ASSERT_FALSE(baselines[2].quality.degraded);

  std::vector<std::unique_ptr<serve::StreamingSession>> sessions;
  std::vector<serve::StreamingSession*> ptrs;
  for (const audio::Waveform& recording : recordings) {
    sessions.push_back(fed_session(recording));
    ptrs.push_back(sessions.back().get());
  }
  std::vector<CancelToken> cancels(kRequests);
  fault::ScopedFault guard("pipeline.segment_chirp=nth:15");
  std::vector<core::AnalysisOutcome> outcomes =
      serve::StreamingSession::finish(pipeline, ptrs, cancels);
  for (std::size_t i = 0; i < kRequests; ++i) {
    SCOPED_TRACE("request " + std::to_string(i));
    ASSERT_TRUE(outcomes[i].ok());
    expect_bit_identical(outcomes[i].analysis, baselines[i]);
  }
}

// The pipeline.batch fault point runs every request as its own batch of
// one — each must still get its exact result.
TEST(StageGraphBatchTest, PipelineBatchFaultFallsBackPerRequest) {
  const core::EarSonar pipeline(causal_config());
  const std::size_t kRequests = 3;
  std::vector<audio::Waveform> recordings;
  std::vector<core::EchoAnalysis> baselines;
  for (std::size_t i = 0; i < kRequests; ++i) {
    recordings.push_back(test_recording(300 + i));
    baselines.push_back(pipeline.analyze(recordings.back()));
  }

  std::vector<std::unique_ptr<serve::StreamingSession>> sessions;
  std::vector<serve::StreamingSession*> ptrs;
  for (const audio::Waveform& recording : recordings) {
    sessions.push_back(fed_session(recording));
    ptrs.push_back(sessions.back().get());
  }
  std::vector<CancelToken> cancels(kRequests);
  fault::ScopedFault guard("pipeline.batch=always");
  pipeline::StageGraph graph;
  std::vector<core::AnalysisOutcome> outcomes =
      serve::StreamingSession::finish(pipeline, ptrs, cancels, &graph);
  EXPECT_EQ(graph.fallbacks(), 1u);
  const pipeline::StageStats& psd = graph.stats(pipeline::StageId::kEchoPsd);
  EXPECT_EQ(psd.passes.load(), kRequests);
  EXPECT_EQ(psd.batched_items.load(), 0u);
  for (std::size_t i = 0; i < kRequests; ++i) {
    SCOPED_TRACE("request " + std::to_string(i));
    ASSERT_TRUE(outcomes[i].ok());
    expect_bit_identical(outcomes[i].analysis, baselines[i]);
  }
}

// A transform fault inside the shared echo_psd pass (here in a group that
// holds echoes of the second request) fails the pass, not the batch: each
// request recomputes its own PSD rows, and every result equals its
// unbatched analysis bit for bit.
TEST(StageGraphBatchTest, FftExecuteFaultInSharedPassRecomputesPerRequest) {
  const core::EarSonar pipeline(causal_config());
  const std::size_t kRequests = 3;
  std::vector<audio::Waveform> recordings;
  std::vector<core::EchoAnalysis> baselines;
  for (std::size_t i = 0; i < kRequests; ++i) {
    recordings.push_back(test_recording(350 + i));
    baselines.push_back(pipeline.analyze(recordings.back()));
  }
  const std::size_t first_echoes = baselines[0].echoes.size();
  ASSERT_GT(baselines[1].echoes.size(), 0u);
  // The shared pass runs groups of four over the flattened echoes; the
  // group after request 0's last full group holds request 1's echoes.
  const std::size_t group = first_echoes / 4 + 1;

  std::vector<std::unique_ptr<serve::StreamingSession>> sessions;
  std::vector<serve::StreamingSession*> ptrs;
  for (const audio::Waveform& recording : recordings) {
    sessions.push_back(fed_session(recording));
    ptrs.push_back(sessions.back().get());
  }
  std::vector<CancelToken> cancels(kRequests);
  fault::ScopedFault guard("fft.execute=nth:" + std::to_string(group));
  std::vector<core::AnalysisOutcome> outcomes =
      serve::StreamingSession::finish(pipeline, ptrs, cancels);
  std::uint64_t fires = 0;
  for (const fault::PointStats& stats : fault::Registry::instance().stats())
    if (stats.name == "fft.execute") fires = stats.fires;
  EXPECT_EQ(fires, 1u);
  for (std::size_t i = 0; i < kRequests; ++i) {
    SCOPED_TRACE("request " + std::to_string(i));
    ASSERT_TRUE(outcomes[i].ok());
    expect_bit_identical(outcomes[i].analysis, baselines[i]);
  }
}

// One bad session (nothing fed) must fail alone; lane-mates still finish
// with exact results.
TEST(StageGraphBatchTest, EmptySessionFailsWithoutTakingDownLaneMates) {
  const core::EarSonar pipeline(causal_config());
  const audio::Waveform recording = test_recording(400);
  const core::EchoAnalysis baseline = pipeline.analyze(recording);

  std::unique_ptr<serve::StreamingSession> good = fed_session(recording);
  serve::StreamingSession empty(causal_stream_config());  // never fed
  std::vector<serve::StreamingSession*> ptrs = {good.get(), &empty};
  std::vector<CancelToken> cancels(2);
  std::vector<core::AnalysisOutcome> outcomes =
      serve::StreamingSession::finish(pipeline, ptrs, cancels);
  ASSERT_TRUE(outcomes[0].ok());
  expect_bit_identical(outcomes[0].analysis, baseline);
  EXPECT_FALSE(outcomes[1].ok());
}

// ----------------------------------------------------- engine integration

// A batching engine (batch_max > 1) must return the same answers as
// EarSonar::analyze and surface its batch passes in the metrics and
// stage-graph occupancy counters.
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

  for (std::size_t i = 0; i < kRequests; ++i) {
    SCOPED_TRACE(results[i].id);
    EXPECT_TRUE(results[i].error.empty()) << results[i].error;
    ASSERT_TRUE(results[i].usable);
    ASSERT_EQ(results[i].features.size(), baselines[i].features.size());
    for (std::size_t f = 0; f < baselines[i].features.size(); ++f)
      EXPECT_EQ(results[i].features[f], baselines[i].features[f])
          << "feature " << f;
  }
  EXPECT_EQ(engine.metrics().completed.load(), kRequests);
  EXPECT_GE(engine.metrics().batches.load(), 1u);
  EXPECT_GE(engine.metrics().batched_requests.load(), 2u);
  const pipeline::StageStats& psd = engine.stage_graph().stats(
      pipeline::StageId::kEchoPsd);
  EXPECT_GT(psd.items.load(), 0u);

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
// `filter` pass (never batched) and its `filter` timing, as in EarSonar::analyze.
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
  EXPECT_EQ(filter.batched_items.load(), 0u);
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
  // matches too.
  for (std::size_t s = 0; s < pipeline::kStageCount; ++s) {
    const auto id = static_cast<pipeline::StageId>(s);
    const pipeline::StageStats& stats = engine.stage_graph().stats(id);
    SCOPED_TRACE(pipeline::stage_name(id));
    EXPECT_GT(stats.passes.load(), 0u);
    EXPECT_EQ(stats.latency.count(), stats.passes.load());
    std::size_t named = 0;
    for (const obs::TraceEvent& span : spans)
      if (span.name == pipeline::stage_name(id)) ++named;
    EXPECT_EQ(named, stats.passes.load());
  }
  // Only echo_psd runs across requests.
  EXPECT_EQ(engine.stage_graph().stats(pipeline::StageId::kEchoPsd).batched_items.load(),
            engine.metrics().batched_requests.load());
  EXPECT_EQ(engine.stage_graph().stats(pipeline::StageId::kFeatures).batched_items.load(),
            0u);

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

  serve::ServingEngine engine(one_batch_engine(kRequests));
  std::vector<serve::ServeResult> results;
  {
    fault::ScopedFault guard("serve.stream.feed=nth:2");
    engine.start();
    std::vector<std::future<serve::ServeResult>> futures;
    for (std::size_t i = 0; i < kRequests; ++i) {
      serve::ServeRequest request;
      request.id = "r" + std::to_string(i);
      request.recording = recordings[i];
      request.chunk_samples = recordings[i].size();  // one feed per job
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
// deadline_exceeded, while fresh lane-mates complete normally.
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
