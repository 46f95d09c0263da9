// Differential oracle for streaming-vs-batch equivalence. Causal IIR
// filtering commutes with chunking, so the chunked paths must be BIT-EXACT
// (tolerance {0, 0}) against the whole-signal batch references:
//
//   serve.stream.filter — BiquadCascade::process fed chunk-by-chunk vs one
//     whole-signal call on a fresh cascade.
//   serve.stream.finish — StreamingSession::finish() vs EarSonar::analyze()
//     on the identical causal configuration, at chunk sizes from single
//     samples to the whole recording.
//
// This binary carries the extra `oracle_stream` ctest label so
// scripts/check_sanitize.sh can run just the concurrency-relevant pairs
// under ThreadSanitizer.
#include <gtest/gtest.h>

#include <span>
#include <string>
#include <vector>

#include "check/cases.hpp"
#include "check/tolerance.hpp"
#include "common/rng.hpp"
#include "core/pipeline.hpp"
#include "dsp/biquad.hpp"
#include "dsp/butterworth.hpp"
#include "serve/streaming.hpp"
#include "sim/dataset.hpp"
#include "sim/probe.hpp"

namespace earsonar {
namespace {

using check::CompareResult;
using check::Tolerance;

constexpr std::uint64_t kSeed = 0x0eac1e5eedULL;

// Same deterministic recording idiom as tests/serve_test.cpp: 10 chirps,
// ~55 ms, fixed factory and rng seeds.
audio::Waveform test_recording(std::uint64_t seed = 7) {
  sim::SubjectFactory factory(42);
  sim::ProbeConfig pc;
  pc.chirp_count = 10;
  sim::EarProbe probe(pc);
  Rng rng(seed);
  return probe.record_state(factory.make(0), sim::EffusionState::kClear,
                            sim::reference_earphone(), {}, rng);
}

// Streaming sessions require causal filtering; the batch reference runs the
// identical configuration so the two paths share every coefficient.
core::PipelineConfig causal_config() {
  core::PipelineConfig cfg;
  cfg.preprocess.zero_phase = false;
  return cfg;
}

// ---------------------------------------------------- chunked filtering

TEST(OracleStreamFilterTest, ChunkedCascadeIsBitExactToWholeSignal) {
  const Tolerance tol = check::pair_policy("serve.stream.filter").tol;  // {0, 0}
  const dsp::BiquadCascade prototype =
      dsp::butterworth_bandpass(4, 15000.0, 21000.0, 48000.0);
  for (const check::SignalCase& c : check::standard_cases(kSeed ^ 14, 1024)) {
    dsp::BiquadCascade batch(prototype.sections());
    const std::vector<double> want = batch.process(c.data);
    for (std::size_t chunk : {1UL, 7UL, 64UL, 480UL}) {
      dsp::BiquadCascade streaming(prototype.sections());
      std::vector<double> got;
      got.reserve(c.data.size());
      std::span<const double> samples(c.data);
      for (std::size_t pos = 0; pos < samples.size(); pos += chunk) {
        const std::size_t len = std::min(chunk, samples.size() - pos);
        const std::vector<double> piece =
            streaming.process(samples.subspan(pos, len));
        got.insert(got.end(), piece.begin(), piece.end());
      }
      const CompareResult r = check::compare_vectors(got, want, tol);
      EXPECT_TRUE(r.ok) << c.name << " chunk=" << chunk << ": "
                        << check::describe_failure("serve.stream.filter", r);
    }
  }
}

// ---------------------------------------------------- session vs batch

TEST(OracleStreamFinishTest, FinishIsBitExactToBatchAnalyzeAtEveryChunkSize) {
  const Tolerance tol = check::pair_policy("serve.stream.finish").tol;  // {0, 0}
  const audio::Waveform recording = test_recording();
  const core::EarSonar batch_pipeline(causal_config());
  const core::EchoAnalysis batch = batch_pipeline.analyze(recording);
  ASSERT_TRUE(batch.usable());

  const std::size_t chunks[] = {1, 7, 480, 4800, recording.size()};
  for (std::size_t chunk : chunks) {
    SCOPED_TRACE("chunk size " + std::to_string(chunk));
    serve::StreamingConfig sc;
    sc.pipeline = causal_config();
    serve::StreamingSession session(sc);
    std::span<const double> samples = recording.view();
    for (std::size_t pos = 0; pos < samples.size(); pos += chunk) {
      const std::size_t len = std::min(chunk, samples.size() - pos);
      ASSERT_EQ(session.feed(samples.subspan(pos, len)),
                serve::FeedStatus::kAccepted);
    }
    const core::EchoAnalysis stream = session.finish(batch_pipeline);

    const CompareResult feat =
        check::compare_vectors(stream.features, batch.features, tol);
    EXPECT_TRUE(feat.ok) << check::describe_failure("serve.stream.finish", feat);
    const CompareResult psd = check::compare_vectors(
        stream.mean_spectrum.psd, batch.mean_spectrum.psd, tol);
    EXPECT_TRUE(psd.ok) << check::describe_failure("serve.stream.finish", psd);

    ASSERT_EQ(stream.events.size(), batch.events.size());
    for (std::size_t i = 0; i < batch.events.size(); ++i) {
      EXPECT_EQ(stream.events[i].start, batch.events[i].start);
      EXPECT_EQ(stream.events[i].end, batch.events[i].end);
    }
  }
}

// Equivalence must hold across recordings, not just one lucky seed.
TEST(OracleStreamFinishTest, HoldsAcrossStatesAndSeeds) {
  const Tolerance tol = check::pair_policy("serve.stream.finish").tol;
  sim::SubjectFactory factory(42);
  sim::ProbeConfig pc;
  pc.chirp_count = 10;
  sim::EarProbe probe(pc);
  const core::EarSonar batch_pipeline(causal_config());

  std::uint64_t seed = 100;
  for (sim::EffusionState state :
       {sim::EffusionState::kClear, sim::EffusionState::kMucoid}) {
    Rng rng(seed++);
    const audio::Waveform recording = probe.record_state(
        factory.make(seed % 3), state, sim::reference_earphone(), {}, rng);
    const core::EchoAnalysis batch = batch_pipeline.analyze(recording);
    ASSERT_TRUE(batch.usable());

    serve::StreamingConfig sc;
    sc.pipeline = causal_config();
    serve::StreamingSession session(sc);
    std::span<const double> samples = recording.view();
    for (std::size_t pos = 0; pos < samples.size(); pos += 960) {
      const std::size_t len = std::min<std::size_t>(960, samples.size() - pos);
      ASSERT_EQ(session.feed(samples.subspan(pos, len)),
                serve::FeedStatus::kAccepted);
    }
    const core::EchoAnalysis stream = session.finish(batch_pipeline);
    const CompareResult feat =
        check::compare_vectors(stream.features, batch.features, tol);
    EXPECT_TRUE(feat.ok) << "state " << static_cast<int>(state) << ": "
                         << check::describe_failure("serve.stream.finish", feat);
  }
}

}  // namespace
}  // namespace earsonar
