// Fault-injection, degradation, deadline, and self-healing tests.
//
// Covers the robustness tentpole end to end: the fault registry's trigger
// policies, graceful per-chirp degradation (including the bit-identical
// guarantee that a degraded analysis equals analyzing only the surviving
// chirps), the error taxonomy's grep-able exception contract, CancelToken
// deadlines, and the ModelReloader's exponential-backoff recovery. Built with
// the `fault` ctest label so the suite runs under the sanitizer sweeps of
// scripts/check_sanitize.sh alongside the `serve` label.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include <unistd.h>

#include "audio/wav.hpp"
#include "common/cancel.hpp"
#include "common/error.hpp"
#include "common/fault.hpp"
#include "common/rng.hpp"
#include "core/event_detect.hpp"
#include "core/features.hpp"
#include "core/pipeline.hpp"
#include "core/preprocess.hpp"
#include "core/segment.hpp"
#include "serve/registry.hpp"
#include "serve/streaming.hpp"
#include "sim/dataset.hpp"
#include "sim/probe.hpp"

namespace earsonar {
namespace {

namespace fs = std::filesystem;

// A realistic multi-chirp recording; chirp_count is high enough that an
// every:10 fault drops several chirps while plenty survive.
audio::Waveform test_recording(std::size_t chirps = 30, std::uint64_t seed = 7) {
  sim::SubjectFactory factory(42);
  sim::ProbeConfig pc;
  pc.chirp_count = chirps;
  sim::EarProbe probe(pc);
  Rng rng(seed);
  return probe.record_state(factory.make(0), sim::EffusionState::kClear,
                            sim::reference_earphone(), {}, rng);
}

// A tiny valid model file in the save_detector text format.
void write_model_file(const std::string& path) {
  std::ofstream out(path);
  out << "earsonar-model 1\n"
      << "scaler_mean 2 0 0\n"
      << "scaler_std 2 1 1\n"
      << "selected 2 0 1\n"
      << "centroids 2 2\n"
      << "-1 -1\n"
      << "1 1\n"
      << "mapping 2 0 2\n";
}

// A scratch directory unique to this process and test: ctest runs each test
// case as its own process, possibly in parallel, so a shared fixed path
// would let one case's cleanup delete another's files.
class TempDir {
 public:
  TempDir() {
    const ::testing::TestInfo* test =
        ::testing::UnitTest::GetInstance()->current_test_info();
    path_ = fs::temp_directory_path() /
            ("earsonar_fault_test_" + std::to_string(::getpid()) + "_" +
             test->test_suite_name() + "." + test->name());
    fs::create_directories(path_);
  }
  ~TempDir() { fs::remove_all(path_); }
  [[nodiscard]] std::string file(const std::string& name) const {
    return (path_ / name).string();
  }

 private:
  fs::path path_;
};

// ------------------------------------------------------------ fault registry

TEST(FaultRegistryTest, DisarmedRegistryNeverFires) {
  fault::Registry::instance().disarm_all();
  EXPECT_EQ(fault::Registry::instance().armed_count(), 0u);
  EXPECT_FALSE(fault::point("wav.read"));
  EXPECT_FALSE(fault::point("no.such.point"));
}

TEST(FaultRegistryTest, AlwaysPolicyFiresEveryCall) {
  fault::ScopedFault guard("test.always", fault::Policy{});
  EXPECT_TRUE(fault::point("test.always"));
  EXPECT_TRUE(fault::point("test.always"));
  EXPECT_FALSE(fault::point("test.other"));  // armed registry, unarmed point
}

TEST(FaultRegistryTest, NthPolicyFiresExactlyOnce) {
  fault::Policy policy;
  policy.mode = fault::Policy::Mode::kNth;
  policy.n = 3;
  fault::ScopedFault guard("test.nth", policy);
  EXPECT_FALSE(fault::point("test.nth"));
  EXPECT_FALSE(fault::point("test.nth"));
  EXPECT_TRUE(fault::point("test.nth"));
  EXPECT_FALSE(fault::point("test.nth"));
}

TEST(FaultRegistryTest, EveryKPolicyFiresPeriodically) {
  fault::ScopedFault guard("test.every=every:3");
  std::vector<bool> fires;
  for (int i = 0; i < 9; ++i) fires.push_back(fault::point("test.every"));
  const std::vector<bool> expected = {false, false, true, false, false,
                                      true,  false, false, true};
  EXPECT_EQ(fires, expected);
}

TEST(FaultRegistryTest, ProbabilityPolicyIsDeterministicPerSeed) {
  const auto sequence = [] {
    fault::ScopedFault guard("test.prob=prob:0.5:1234");
    std::vector<bool> fires;
    for (int i = 0; i < 64; ++i) fires.push_back(fault::point("test.prob"));
    return fires;
  };
  const std::vector<bool> a = sequence();
  const std::vector<bool> b = sequence();
  EXPECT_EQ(a, b);
  // With p = 0.5 over 64 draws, both outcomes must occur.
  EXPECT_NE(std::count(a.begin(), a.end(), true), 0);
  EXPECT_NE(std::count(a.begin(), a.end(), true), 64);
}

TEST(FaultRegistryTest, SpecParsesMultiplePointsAndCounts) {
  fault::ScopedFault guard("test.a=always;test.b=nth:2");
  EXPECT_EQ(fault::Registry::instance().armed_count(), 2u);
  const std::uint64_t before = fault::Registry::instance().injected_total();
  EXPECT_TRUE(fault::point("test.a"));
  EXPECT_FALSE(fault::point("test.b"));
  EXPECT_TRUE(fault::point("test.b"));
  EXPECT_EQ(fault::Registry::instance().injected_total(), before + 2);
  bool saw_a = false;
  for (const fault::PointStats& stats : fault::Registry::instance().stats()) {
    if (stats.name != "test.a") continue;
    saw_a = true;
    EXPECT_EQ(stats.calls, 1u);
    EXPECT_EQ(stats.fires, 1u);
  }
  EXPECT_TRUE(saw_a);
}

TEST(FaultRegistryTest, DisarmRemovesOnePoint) {
  fault::ScopedFault guard("test.a=always;test.b=always");
  fault::Registry::instance().disarm("test.a");
  EXPECT_FALSE(fault::point("test.a"));
  EXPECT_TRUE(fault::point("test.b"));
}

TEST(FaultRegistryTest, MalformedSpecsThrowInvalidArgument) {
  for (const char* spec :
       {"", "noequals", "p=", "p=bogus", "p=nth", "p=nth:0", "p=nth:x",
        "p=every:0", "p=prob", "p=prob:1.5", "p=prob:-0.1", "p=prob:0.5:x"}) {
    EXPECT_THROW(fault::parse_policy(
                     std::string_view(spec).substr(std::string_view(spec).find('=') + 1)),
                 std::invalid_argument)
        << spec;
  }
  EXPECT_THROW(fault::Registry::instance().arm_spec("noequals"), std::invalid_argument);
  fault::Registry::instance().disarm_all();
}

TEST(FaultRegistryTest, ScopedFaultRestoresDisarmedState) {
  {
    fault::ScopedFault guard("test.scope=always");
    EXPECT_TRUE(fault::point("test.scope"));
  }
  EXPECT_EQ(fault::Registry::instance().armed_count(), 0u);
  EXPECT_FALSE(fault::point("test.scope"));
}

// ------------------------------------------------------- fault points in I/O

TEST(FaultPointTest, WavReadFaultInjects) {
  fault::ScopedFault guard("wav.read=always");
  EXPECT_THROW(
      {
        try {
          audio::read_wav("/nonexistent.wav");
        } catch (const std::runtime_error& e) {
          EXPECT_NE(std::string(e.what()).find("injected fault: wav.read"),
                    std::string::npos);
          throw;
        }
      },
      std::runtime_error);
}

TEST(FaultPointTest, RegistryLoadFaultKeepsCurrentModel) {
  TempDir dir;
  const std::string path = dir.file("model.txt");
  write_model_file(path);
  serve::ModelRegistry registry;
  EXPECT_EQ(registry.load_file(path), 1u);
  {
    fault::ScopedFault guard("serve.registry.load=always");
    EXPECT_THROW((void)registry.load_file(path), std::runtime_error);
  }
  EXPECT_EQ(registry.version(), 1u);
  EXPECT_NE(registry.current(), nullptr);
}

// ----------------------------------------------------- graceful degradation

TEST(DegradationTest, AllChirpsBadThrowsWithDegradedPrefix) {
  const audio::Waveform recording = test_recording(10);
  const core::EarSonar pipeline{core::PipelineConfig{}};
  fault::ScopedFault guard("pipeline.segment_chirp=always");
  EXPECT_THROW(
      {
        try {
          (void)pipeline.analyze(recording);
        } catch (const std::runtime_error& e) {
          EXPECT_NE(std::string(e.what()).find("EarSonar::analyze: degraded"),
                    std::string::npos);
          throw;
        }
      },
      std::runtime_error);
}

TEST(DegradationTest, EventDetectFailureReportsWholeStage) {
  const audio::Waveform recording = test_recording(10);
  const core::EarSonar pipeline{core::PipelineConfig{}};
  fault::ScopedFault guard("pipeline.event_detect=always");
  try {
    (void)pipeline.analyze(recording);
    FAIL() << "expected degraded throw";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("degraded"), std::string::npos);
    EXPECT_NE(what.find("event_detect"), std::string::npos);
  }
}

// The acceptance-criterion chaos test: with ~10% of chirps corrupted, the
// degraded analysis must be *bit-identical in features* to analyzing only the
// good chirps through the same public stages.
TEST(DegradationTest, PartiallyBadRecordingMatchesGoodChirpsBitIdentically) {
  const audio::Waveform recording = test_recording(30);
  const core::PipelineConfig config;
  const core::EarSonar pipeline(config);

  core::EchoAnalysis degraded;
  {
    fault::ScopedFault guard("pipeline.segment_chirp=every:10");
    degraded = pipeline.analyze(recording);
  }
  ASSERT_TRUE(degraded.quality.degraded);
  ASSERT_FALSE(degraded.quality.drops.empty());
  ASSERT_GT(degraded.quality.chirps_used, 0u);
  EXPECT_EQ(degraded.quality.chirps_total,
            degraded.quality.chirps_used + degraded.quality.chirps_dropped);
  std::set<std::size_t> dropped;
  for (const core::ChirpDrop& drop : degraded.quality.drops) {
    EXPECT_EQ(drop.stage, "segment");
    EXPECT_NE(drop.reason.find("injected fault"), std::string::npos);
    dropped.insert(drop.chirp);
  }

  // Reference: the same stages over only the surviving chirps, via public
  // APIs (bandpass -> detect -> align -> segment -> consensus re-anchor ->
  // features), with no faults armed.
  const core::Preprocessor preprocessor(config.preprocess);
  const audio::Waveform filtered = preprocessor.process(recording);
  const core::AdaptiveEventDetector detector(config.events);
  std::vector<core::Event> events = detector.detect(filtered);
  for (core::Event& event : events)
    event.start = core::aligned_event_start(filtered.view(), event);
  ASSERT_EQ(events.size(), degraded.quality.chirps_total);

  const core::ParityEchoSegmenter segmenter(config.segmenter, config.chirp);
  std::vector<core::EchoSegment> echoes;
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (dropped.count(i) > 0) continue;
    if (std::optional<core::EchoSegment> echo = segmenter.segment(filtered, events[i]))
      echoes.push_back(*echo);
  }
  core::reanchor_echoes(echoes, filtered.sample_rate());
  ASSERT_EQ(echoes.size(), degraded.echoes.size());

  const core::FeatureExtractor extractor(config.features, config.chirp);
  const core::FeatureExtractor::Result reference = extractor.extract_full(filtered, echoes);

  EXPECT_EQ(degraded.features, reference.features);
  EXPECT_EQ(degraded.mean_spectrum.frequency_hz, reference.mean_spectrum.frequency_hz);
  EXPECT_EQ(degraded.mean_spectrum.psd, reference.mean_spectrum.psd);
}

TEST(DegradationTest, MinUsableChirpsFloorIsEnforced) {
  const audio::Waveform recording = test_recording(10);
  core::PipelineConfig config;
  config.min_usable_chirps = 100;  // unreachable once anything drops
  const core::EarSonar pipeline(config);
  fault::ScopedFault guard("pipeline.segment_chirp=nth:1");
  EXPECT_THROW((void)pipeline.analyze(recording), std::runtime_error);
}

TEST(DegradationTest, FeatureStageFaultDropsPoisonedChirpsOnly) {
  const audio::Waveform recording = test_recording(20);
  const core::EarSonar pipeline{core::PipelineConfig{}};
  // nth:1 fires on the whole-stage extract_full call; the per-echo probe and
  // the survivor re-extraction then run clean, so every echo survives.
  fault::ScopedFault guard("pipeline.features=nth:1");
  const core::EchoAnalysis analysis = pipeline.analyze(recording);
  EXPECT_TRUE(analysis.quality.degraded);
  EXPECT_FALSE(analysis.features.empty());
  EXPECT_TRUE(analysis.usable());
}

TEST(DegradationTest, StreamingSessionCarriesQuality) {
  const audio::Waveform recording = test_recording(20);
  serve::StreamingConfig sc;
  sc.pipeline.preprocess.zero_phase = false;
  const core::EarSonar pipeline(sc.pipeline);
  serve::StreamingSession session(sc);
  session.feed(recording.view());
  const core::EchoAnalysis final_analysis = session.finish(pipeline);
  EXPECT_FALSE(final_analysis.quality.degraded);
  EXPECT_EQ(final_analysis.quality.chirps_total, final_analysis.events.size());
  EXPECT_EQ(final_analysis.quality.chirps_used, final_analysis.echoes.size());
}

// ------------------------------------------------------------- cancel token

TEST(CancelTokenTest, DefaultTokenNeverExpires) {
  const CancelToken token;
  EXPECT_FALSE(token.expired());
  EXPECT_NO_THROW(token.check("stage"));
  token.cancel();  // no flag: no-op
  EXPECT_FALSE(token.expired());
}

TEST(CancelTokenTest, ExpiredDeadlineThrowsWithPrefix) {
  const CancelToken token = CancelToken::after_ms(0.0);
  EXPECT_TRUE(token.expired());
  try {
    token.check("unit");
    FAIL() << "expected CancelledError";
  } catch (const CancelledError& e) {
    EXPECT_EQ(std::string(e.what()), "deadline_exceeded: unit");
  }
}

TEST(CancelTokenTest, CancellableFlagSharedAcrossCopies) {
  const CancelToken token = CancelToken::cancellable();
  const CancelToken copy = token;
  EXPECT_FALSE(copy.expired());
  token.cancel();
  EXPECT_TRUE(copy.expired());
  EXPECT_THROW(copy.check("copy"), CancelledError);
}

TEST(CancelTokenTest, AnalyzeWithExpiredTokenThrowsCancelled) {
  const audio::Waveform recording = test_recording(10);
  const core::EarSonar pipeline{core::PipelineConfig{}};
  EXPECT_THROW((void)pipeline.analyze(recording, CancelToken::after_ms(0.0)),
               CancelledError);
}

TEST(CancelTokenTest, StreamingFinishHonorsCancel) {
  const audio::Waveform recording = test_recording(10);
  serve::StreamingConfig sc;
  sc.pipeline.preprocess.zero_phase = false;
  serve::StreamingSession session(sc);
  session.feed(recording.view());
  EXPECT_THROW((void)session.finish(core::EarSonar(sc.pipeline),
                                    CancelToken::after_ms(0.0)),
               CancelledError);
}

// ----------------------------------------------------------- error taxonomy

// The library's exception contract (see common/error.hpp): precondition
// violations -> std::invalid_argument, internal invariants -> std::logic_error,
// external/runtime failures -> std::runtime_error; CancelledError is a
// runtime_error with the "deadline_exceeded" prefix. Table-driven so adding a
// helper forces a row here.
TEST(ErrorTaxonomyTest, HelpersThrowDocumentedTypes) {
  struct Row {
    const char* name;
    void (*thrower)();
    enum Kind { kInvalidArgument, kLogicError, kRuntimeError } kind;
  };
  const Row rows[] = {
      {"require", [] { require(false, "require: broken precondition"); },
       Row::kInvalidArgument},
      {"require_in_range", [] { require_in_range("x", 2.0, 0.0, 1.0); },
       Row::kInvalidArgument},
      {"require_positive", [] { require_positive("x", -1.0); },
       Row::kInvalidArgument},
      {"require_nonempty", [] { require_nonempty("xs", 0); },
       Row::kInvalidArgument},
      {"ensure", [] { ensure(false, "ensure: broken invariant"); },
       Row::kLogicError},
      {"fail", [] { fail("fail: unavailable resource"); }, Row::kRuntimeError},
      {"cancel",
       [] { CancelToken::after_ms(0.0).check("taxonomy"); },
       Row::kRuntimeError},
  };
  for (const Row& row : rows) {
    SCOPED_TRACE(row.name);
    switch (row.kind) {
      case Row::kInvalidArgument:
        EXPECT_THROW(row.thrower(), std::invalid_argument);
        break;
      case Row::kLogicError:
        EXPECT_THROW(row.thrower(), std::logic_error);
        break;
      case Row::kRuntimeError:
        EXPECT_THROW(row.thrower(), std::runtime_error);
        break;
    }
  }
  // std::invalid_argument and std::logic_error are not runtime_errors: the
  // taxonomy's tiers are distinguishable at the catch site.
  EXPECT_THROW(require(false, "x"), std::logic_error);   // invalid_argument isa logic_error
  try {
    fail("fail: tier check");
    FAIL();
  } catch (const std::logic_error&) {
    FAIL() << "fail() must not throw a logic_error";
  } catch (const std::runtime_error&) {
  }
}

TEST(ErrorTaxonomyTest, MessagesCarryGrepablePrefixes) {
  try {
    CancelToken::after_ms(0.0).check("stage_x");
  } catch (const CancelledError& e) {
    EXPECT_EQ(std::string(e.what()).rfind("deadline_exceeded", 0), 0u);
  }
  fault::ScopedFault guard("wav.read=always");
  try {
    (void)audio::read_wav("whatever.wav");
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()).rfind("injected fault:", 0), 0u);
  }
}

// ----------------------------------------------------------- model reloader

TEST(ModelReloaderTest, BacksOffOnCorruptDropThenRecovers) {
  using Clock = serve::ModelReloader::Clock;
  TempDir dir;
  const std::string path = dir.file("model.txt");
  write_model_file(path);

  serve::ModelRegistry registry;
  registry.load_file(path);
  ASSERT_EQ(registry.version(), 1u);

  std::atomic<std::uint64_t> retry_metric{0};
  serve::ReloaderConfig rc;
  rc.initial_backoff_ms = 100.0;
  rc.max_backoff_ms = 400.0;
  rc.multiplier = 2.0;
  serve::ModelReloader reloader(registry, path, rc, &retry_metric);

  Clock::time_point now = Clock::now();
  EXPECT_EQ(reloader.poll(now), serve::ModelReloader::Status::kUnchanged);

  {  // Corrupt rewrite: a retrain job crashed mid-write.
    std::ofstream out(path);
    out << "garbage\n";
  }
  // Force an mtime step: a coarse-granularity filesystem could otherwise make
  // the rewrite invisible to the watcher within this test's timescale.
  fs::last_write_time(path, fs::last_write_time(path) + std::chrono::seconds(1));
  EXPECT_EQ(reloader.poll(now), serve::ModelReloader::Status::kFailedWillRetry);
  EXPECT_EQ(reloader.retries(), 1u);
  EXPECT_EQ(retry_metric.load(), 1u);
  EXPECT_DOUBLE_EQ(reloader.current_backoff_ms(), 100.0);
  EXPECT_EQ(registry.version(), 1u);  // last good model still serving
  EXPECT_NE(registry.current(), nullptr);

  // Inside the backoff window nothing is attempted.
  now += std::chrono::milliseconds(50);
  EXPECT_EQ(reloader.poll(now), serve::ModelReloader::Status::kBackingOff);
  EXPECT_EQ(reloader.retries(), 1u);

  // Past the window the retry fires, fails again, and the backoff doubles.
  now += std::chrono::milliseconds(60);
  EXPECT_EQ(reloader.poll(now), serve::ModelReloader::Status::kFailedWillRetry);
  EXPECT_EQ(reloader.retries(), 2u);
  EXPECT_DOUBLE_EQ(reloader.current_backoff_ms(), 200.0);
  EXPECT_FALSE(reloader.last_error().empty());

  // Third failure hits the 400 ms ceiling.
  now += std::chrono::milliseconds(210);
  EXPECT_EQ(reloader.poll(now), serve::ModelReloader::Status::kFailedWillRetry);
  now += std::chrono::milliseconds(410);
  EXPECT_EQ(reloader.poll(now), serve::ModelReloader::Status::kFailedWillRetry);
  EXPECT_DOUBLE_EQ(reloader.current_backoff_ms(), 400.0);

  // The retrain job reruns and writes a good file; the due retry heals.
  write_model_file(path);
  now += std::chrono::milliseconds(410);
  EXPECT_EQ(reloader.poll(now), serve::ModelReloader::Status::kReloaded);
  EXPECT_EQ(registry.version(), 2u);
  EXPECT_EQ(reloader.reloads(), 1u);
  EXPECT_DOUBLE_EQ(reloader.current_backoff_ms(), 0.0);
  EXPECT_TRUE(reloader.last_error().empty());
  EXPECT_EQ(retry_metric.load(), 4u);
}

TEST(ModelReloaderTest, MissingFileIsUnchangedNotFailure) {
  TempDir dir;
  serve::ModelRegistry registry;
  serve::ModelReloader reloader(registry, dir.file("never_written.txt"));
  EXPECT_EQ(reloader.poll(), serve::ModelReloader::Status::kUnchanged);
  EXPECT_EQ(reloader.retries(), 0u);
}

TEST(ModelReloaderTest, InvalidConfigRejected) {
  serve::ModelRegistry registry;
  serve::ReloaderConfig bad;
  bad.initial_backoff_ms = -1.0;
  EXPECT_THROW(serve::ModelReloader(registry, "m", bad), std::invalid_argument);
  serve::ReloaderConfig shrink;
  shrink.multiplier = 0.5;
  EXPECT_THROW(serve::ModelReloader(registry, "m", shrink), std::invalid_argument);
  serve::ReloaderConfig wild;
  wild.jitter = 1.0;  // [0, 1): full-range jitter could schedule a 0 ms retry
  EXPECT_THROW(serve::ModelReloader(registry, "m", wild), std::invalid_argument);
}

// Jitter contract: the *scheduled* retry delay wobbles inside the configured
// band while current_backoff_ms() stays the exact geometric ladder, the
// wobble is a pure function of jitter_seed (same seed → identical schedule),
// and different seeds decorrelate — the point of jitter is that a fleet of
// reloaders watching the same broken file does not retry in lockstep.
TEST(ModelReloaderTest, JitterIsSeededBandedAndLeavesLadderExact) {
  using Clock = serve::ModelReloader::Clock;
  TempDir dir;
  const std::string path = dir.file("model.txt");
  {  // Never parseable: every attempt fails, walking the backoff ladder.
    std::ofstream out(path);
    out << "garbage\n";
  }
  serve::ModelRegistry registry;

  const auto collect = [&](std::uint64_t seed) {
    serve::ReloaderConfig rc;
    rc.initial_backoff_ms = 100.0;
    rc.max_backoff_ms = 800.0;
    rc.multiplier = 2.0;
    rc.jitter = 0.25;
    rc.jitter_seed = seed;
    serve::ModelReloader reloader(registry, path, rc);
    // The ctor baselined the mtime; step it so the first poll attempts.
    fs::last_write_time(path,
                        fs::last_write_time(path) + std::chrono::seconds(1));
    Clock::time_point now = Clock::now();
    std::vector<double> delays;
    for (int k = 0; k < 5; ++k) {
      EXPECT_EQ(reloader.poll(now),
                serve::ModelReloader::Status::kFailedWillRetry);
      delays.push_back(reloader.scheduled_delay_ms());
      now += std::chrono::milliseconds(
          static_cast<long>(reloader.scheduled_delay_ms()) + 5);
    }
    // The ladder itself is un-jittered: 100, 200, 400, then the 800 cap.
    EXPECT_DOUBLE_EQ(reloader.current_backoff_ms(), 800.0);
    return delays;
  };

  const std::vector<double> a = collect(99);
  const std::vector<double> b = collect(99);
  const std::vector<double> c = collect(100);
  ASSERT_EQ(a.size(), 5u);
  const double bases[] = {100.0, 200.0, 400.0, 800.0, 800.0};
  bool differs_from_c = false;
  for (std::size_t k = 0; k < a.size(); ++k) {
    EXPECT_DOUBLE_EQ(a[k], b[k]) << "same seed must replay delay " << k;
    EXPECT_GE(a[k], bases[k] * 0.75) << "delay " << k << " below jitter band";
    EXPECT_LE(a[k], bases[k] * 1.25) << "delay " << k << " above jitter band";
    EXPECT_NE(a[k], bases[k]) << "delay " << k << " not jittered at all";
    if (a[k] != c[k]) differs_from_c = true;
  }
  EXPECT_TRUE(differs_from_c) << "different seeds produced identical schedules";
}

}  // namespace
}  // namespace earsonar
