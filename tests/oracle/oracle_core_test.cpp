// Differential oracle for the two per-event core stages, both bit-exact:
//
//   core.event_detect — AdaptiveEventDetector::detect, which brackets the
//     envelope median within an octave and computes it exactly only when a
//     peak falls inside the bracket, vs check::event_detect_naive (full-sort
//     median up front): equal event lists.
//   core.segment — ParityEchoSegmenter::segment, which auto-convolves only
//     the lags behind the direct pulse that can hold the echo, vs
//     check::segment_naive (every lag, every local maximum, then the distance
//     window): every EchoSegment field equal bit for bit.
//
// Inputs: the served cohort of `perfbench --seed 3`, a noise-only recording,
// a synthetic burst pair built to land inside the median bracket, and event
// windows longer than 64 samples (the FFT auto-convolution) or clipped at
// either edge of the recording.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "check/reference.hpp"
#include "common/rng.hpp"
#include "core/event_detect.hpp"
#include "core/pipeline.hpp"
#include "core/preprocess.hpp"
#include "core/segment.hpp"
#include "sim/dataset.hpp"

namespace earsonar {
namespace {

// The served recordings of `perfbench --seed 3`: subjects 112..175 of a
// 176-subject cohort, one 30-chirp session per state, band-passed by the
// serving pipeline's causal filter.
std::vector<audio::Waveform> served_cohort() {
  constexpr std::uint32_t kEnrolled = 112;
  constexpr std::uint32_t kServed = 64;
  sim::CohortConfig config;
  config.subject_count = kEnrolled + kServed;
  config.sessions_per_state = 1;
  config.seed = 3;
  config.probe.chirp_count = 30;
  const sim::CohortGenerator generator(config);
  core::PreprocessConfig preprocess;
  preprocess.zero_phase = false;
  const core::Preprocessor preprocessor(preprocess);
  std::vector<audio::Waveform> out;
  for (std::uint32_t id = kEnrolled; id < kEnrolled + kServed; ++id)
    for (const sim::SessionRecording& rec : generator.generate_subject(id))
      out.push_back(preprocessor.process(rec.waveform));
  return out;
}

const std::vector<audio::Waveform>& cohort() {
  static const std::vector<audio::Waveform> recordings = served_cohort();
  return recordings;
}

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

void expect_same_segment(const std::optional<core::EchoSegment>& got,
                         const std::optional<core::EchoSegment>& want,
                         const std::string& label) {
  ASSERT_EQ(got.has_value(), want.has_value()) << label;
  if (!got) return;
  EXPECT_EQ(got->event_start, want->event_start) << label;
  EXPECT_EQ(got->peak_index, want->peak_index) << label;
  EXPECT_EQ(got->direct_peak_index, want->direct_peak_index) << label;
  EXPECT_TRUE(same_bits(got->distance_m, want->distance_m)) << label;
  EXPECT_TRUE(same_bits(got->parity_ratio, want->parity_ratio)) << label;
  EXPECT_EQ(got->from_fallback, want->from_fallback) << label;
}

// ------------------------------------------------------- event detection

TEST(OracleEventDetectTest, ServedCohortMatchesNaive) {
  const core::AdaptiveEventDetector detector;
  std::size_t events = 0;
  for (std::size_t r = 0; r < cohort().size(); ++r) {
    const audio::Waveform& rec = cohort()[r];
    const std::vector<core::Event> got = detector.detect(rec);
    expect_same_events(got, check::event_detect_naive(rec.view(), detector.config()),
                       "recording " + std::to_string(r));
    events += got.size();
  }
  EXPECT_GE(events, cohort().size() * 20) << "the cohort's chirps were not detected";
}

TEST(OracleEventDetectTest, NoiseOnlyRecordingMatchesNaive) {
  Rng rng(0x0eac1e5eedULL);
  std::vector<double> noise(9600);
  for (double& v : noise) v = rng.normal(0.0, 0.05);
  const core::AdaptiveEventDetector detector;
  for (const std::vector<double>& x :
       {noise, core::Preprocessor().process(audio::Waveform(noise, 48000.0)).samples()}) {
    const audio::Waveform rec(x, 48000.0);
    expect_same_events(detector.detect(rec),
                       check::event_detect_naive(rec.view(), detector.config()), "noise");
  }
}

// Two bursts over a floor whose envelope is 1.5 * 2^-8 everywhere else: the
// median sits in the octave [2^-8, 2^-7), so the bracket decides a peak only
// outside [6 * 2^-8, 6 * 2^-7) = [4, 8) x floor. Peaks of 7x and 5x the
// floor both land inside and pass every other gate (prominence 3x a global
// mean of ~1.2x floor), so the exact median must decide them: 7x >= 6x is
// kept, 5x < 6x is dropped. Deciding from either bracket edge instead would
// keep both (lower edge) or neither (upper edge).
TEST(OracleEventDetectTest, PeakInsideMedianBracketRunsExactMedian) {
  const double floor_amp = std::sqrt(1.5) / 16.0;
  std::vector<double> x(4096);
  for (std::size_t i = 0; i < x.size(); ++i) x[i] = i % 2 == 0 ? floor_amp : -floor_amp;
  const auto burst = [&](std::size_t start, double power_ratio) {
    for (std::size_t i = start; i < start + 64; ++i) x[i] *= std::sqrt(power_ratio);
  };
  burst(1000, 7.0);
  burst(3000, 5.0);
  const audio::Waveform rec(x, 48000.0);
  const core::AdaptiveEventDetector detector;
  ASSERT_EQ(detector.config().floor_prominence, 6.0);
  const std::vector<core::Event> got = detector.detect(rec);
  expect_same_events(got, check::event_detect_naive(rec.view(), detector.config()),
                     "bracketed bursts");
  ASSERT_EQ(got.size(), 1u);
  EXPECT_LE(got[0].start, 1000u);
  EXPECT_GE(got[0].end, 1064u);
}

// ------------------------------------------------------- echo segmentation

TEST(OracleSegmentTest, ServedCohortEventsMatchNaive) {
  const core::AdaptiveEventDetector detector;
  const core::ParityEchoSegmenter segmenter;
  std::size_t segmented = 0;
  for (std::size_t r = 0; r < cohort().size(); ++r) {
    const audio::Waveform& rec = cohort()[r];
    for (const core::Event& e : detector.detect(rec)) {
      const std::optional<core::EchoSegment> got = segmenter.segment(rec, e);
      expect_same_segment(got, check::segment_naive(rec.view(), e, segmenter.config()),
                          "recording " + std::to_string(r) + " event@" +
                              std::to_string(e.start));
      segmented += got.has_value() && !got->from_fallback;
    }
  }
  EXPECT_GE(segmented, cohort().size() * 20) << "too few parity echoes to compare";
}

// The served events above are all <= 64 samples, the direct
// auto-convolution. These windows cover both regimes — direct and FFT
// (> 64 samples), up to the detector's 480-sample cap — at staggered offsets
// across a few recordings, plus windows clipped at the first and last sample
// of the recording.
TEST(OracleSegmentTest, LongAndEdgeClippedEventsMatchNaive) {
  const core::ParityEchoSegmenter segmenter;
  const std::size_t interval = 240;  // 5 ms chirp interval at 48 kHz
  for (std::size_t r = 0; r < cohort().size(); r += 37) {
    const audio::Waveform& rec = cohort()[r];
    const std::size_t n = rec.size();
    for (std::size_t len : {16UL, 40UL, 64UL, 65UL, 100UL, 131UL, 200UL, 480UL}) {
      std::vector<core::Event> windows = {{0, len}, {n - len, n}};
      for (std::size_t start = 3; start + len <= n; start += 7 * interval + 5)
        windows.push_back({start, start + len});
      for (const core::Event& e : windows)
        expect_same_segment(segmenter.segment(rec, e),
                            check::segment_naive(rec.view(), e, segmenter.config()),
                            "recording " + std::to_string(r) + " [" +
                                std::to_string(e.start) + ", " + std::to_string(e.end) +
                                ")");
    }
  }
}

}  // namespace
}  // namespace earsonar
