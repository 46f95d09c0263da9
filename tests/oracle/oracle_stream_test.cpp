// Differential oracle for streaming-vs-batch equivalence. Causal IIR
// filtering commutes with chunking, so the chunked paths must be BIT-EXACT
// (tolerance {0, 0}) against the whole-signal batch references:
//
//   serve.stream.filter — BiquadCascade::process fed chunk-by-chunk vs one
//     whole-signal call on a fresh cascade.
//   serve.stream.finish — StreamingSession::finish() vs EarSonar::analyze()
//     on the identical causal configuration, at chunk sizes from single
//     samples to the whole recording.
//   serve.stream.envelope — the power envelope BiquadCascade::process_in_place
//     folds chunk by chunk as it filters (the band-pass wavefront's fused
//     loop) vs EnvelopeFold::fold over the whole filtered signal, and the
//     events detected on it vs check::event_detect_naive; sessions shorter
//     than the window, whose finish() folds on its own, vs the batch
//     analysis of the same samples; sessions on several threads at once.
//
// This binary carries the extra `oracle_stream` ctest label so
// scripts/check_sanitize.sh can run just the concurrency-relevant pairs
// under ThreadSanitizer.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "check/cases.hpp"
#include "check/reference.hpp"
#include "check/tolerance.hpp"
#include "common/rng.hpp"
#include "core/pipeline.hpp"
#include "dsp/biquad.hpp"
#include "dsp/butterworth.hpp"
#include "dsp/envelope.hpp"
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

// ------------------------------------------------------ folded envelope

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

void expect_same_events(const std::vector<core::Event>& got,
                        const std::vector<core::Event>& want, const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].start, want[i].start) << label << " event " << i;
    EXPECT_EQ(got[i].end, want[i].end) << label << " event " << i;
  }
}

// Feeds `recording` to a session in `chunk`-sample slices and finishes it.
core::EchoAnalysis stream_through(const serve::StreamingConfig& sc,
                                  std::span<const double> samples, std::size_t chunk,
                                  const core::EarSonar& pipeline) {
  serve::StreamingSession session(sc);
  for (std::size_t pos = 0; pos < samples.size(); pos += chunk)
    EXPECT_EQ(session.feed(samples.subspan(pos, std::min(chunk, samples.size() - pos))),
              serve::FeedStatus::kAccepted);
  return session.finish(pipeline);
}

TEST(OracleStreamEnvelopeTest, FusedFoldMatchesReferenceFoldAndNaiveEvents) {
  const core::EventDetectorConfig events;
  const core::AdaptiveEventDetector detector(events);
  const dsp::BiquadCascade prototype = core::Preprocessor(causal_config().preprocess)
                                           .streaming_filter(48000.0);
  for (std::uint64_t seed : {7ULL, 8ULL}) {
    const std::vector<double> raw = test_recording(seed).samples();
    const std::size_t n = raw.size();
    dsp::BiquadCascade whole(prototype.sections());
    const std::vector<double> filtered = whole.process(raw);
    std::vector<double> want_row(n);
    dsp::EnvelopeFold want(events.smooth, want_row.data());
    want.fold(filtered.data(), n);
    const std::vector<core::Event> naive = check::event_detect_naive(filtered, events);
    ASSERT_FALSE(naive.empty());
    // Chunks below, at and just above the window, the serving chunk, whole.
    for (std::size_t chunk : {1UL, 3UL, 7UL, 15UL, 16UL, 17UL, 480UL, n}) {
      const std::string label =
          "seed " + std::to_string(seed) + " chunk " + std::to_string(chunk);
      dsp::BiquadCascade chunked(prototype.sections());
      std::vector<double> buffer = raw;
      std::vector<double> row(n);
      dsp::EnvelopeFold fold(events.smooth, row.data());
      for (std::size_t pos = 0; pos < n; pos += chunk)
        chunked.process_in_place(
            std::span<double>(buffer).subspan(pos, std::min(chunk, n - pos)), &fold);
      ASSERT_EQ(fold.count, n) << label;
      std::size_t differ = 0;
      for (std::size_t i = 0; i < n; ++i)
        differ += !same_bits(buffer[i], filtered[i]) || !same_bits(row[i], want_row[i]);
      EXPECT_EQ(differ, 0U) << label << ": samples or envelope centers differ";
      EXPECT_TRUE(same_bits(fold.run, want.run)) << label;
      EXPECT_TRUE(same_bits(fold.sum, want.sum)) << label;
      EXPECT_TRUE(fold.histogram == want.histogram) << label;
      expect_same_events(detector.detect(fold), naive, label);
    }
  }
}

TEST(OracleStreamEnvelopeTest, UnfoldedSessionsMatchBatchAnalysisOfWhatTheyKept) {
  const core::EarSonar pipeline(causal_config());
  const audio::Waveform recording = test_recording();
  serve::StreamingConfig sc;
  sc.pipeline = causal_config();
  // Shorter than the smoothing window: the whole-recording fold shrinks its
  // window to the recording, so finish() folds on its own.
  for (std::size_t n : {1UL, 5UL, 15UL}) {
    const std::vector<double> head(recording.samples().begin(),
                                   recording.samples().begin() + static_cast<std::ptrdiff_t>(n));
    const core::EchoAnalysis batch = pipeline.analyze(audio::Waveform(head, 48000.0));
    for (std::size_t chunk : {1UL, 4UL, n}) {
      const core::EchoAnalysis stream = stream_through(sc, head, chunk, pipeline);
      expect_same_events(stream.events, batch.events,
                         "n " + std::to_string(n) + " chunk " + std::to_string(chunk));
      EXPECT_EQ(stream.usable(), batch.usable());
    }
  }
}

// Sessions fold on whichever thread feeds them; several at once must not
// share fold state (the ThreadSanitizer leg runs this binary).
TEST(OracleStreamEnvelopeTest, SessionsOnSeveralThreadsMatchBatch) {
  const Tolerance tol = check::pair_policy("serve.stream.envelope").tol;
  const core::EarSonar pipeline(causal_config());
  const audio::Waveform recording = test_recording();
  const core::EchoAnalysis batch = pipeline.analyze(recording);
  ASSERT_TRUE(batch.usable());
  serve::StreamingConfig sc;
  sc.pipeline = causal_config();
  const std::size_t chunks[] = {1, 17, 480, recording.size()};
  std::vector<core::EchoAnalysis> streams(std::size(chunks));
  std::vector<std::thread> threads;
  for (std::size_t k = 0; k < std::size(chunks); ++k)
    threads.emplace_back([&, k] {
      streams[k] = stream_through(sc, recording.view(), chunks[k], pipeline);
    });
  for (std::thread& t : threads) t.join();
  for (std::size_t k = 0; k < std::size(chunks); ++k) {
    const std::string label = "chunk " + std::to_string(chunks[k]);
    expect_same_events(streams[k].events, batch.events, label);
    const CompareResult feat = check::compare_vectors(streams[k].features, batch.features, tol);
    EXPECT_TRUE(feat.ok) << label << ": "
                         << check::describe_failure("serve.stream.envelope", feat);
  }
}

}  // namespace
}  // namespace earsonar
