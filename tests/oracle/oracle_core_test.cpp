// Differential oracle for the two per-event core stages, both bit-exact:
//
//   core.event_detect — AdaptiveEventDetector::detect, whose envelope fold
//     also counts every final envelope value into a sign+exponent histogram
//     (the trailing zero centers as one weighted count) that brackets the
//     median within an octave, and which computes the exact median only when
//     a peak falls inside the bracket, vs check::event_detect_naive (envelope
//     array first, full-sort median up front): equal event lists.
//   core.segment — ParityEchoSegmenter::segment, which auto-convolves only
//     the lags behind the direct pulse that can hold the echo, vs
//     check::segment_naive (every lag, every local maximum, then the distance
//     window): every EchoSegment field equal bit for bit.
//
// Inputs: the served cohort of `perfbench --seed 3`, a noise-only recording,
// a synthetic burst pair built to land inside the median bracket, the
// fold's edges (recordings shorter than the smoothing window, around its
// half-width and its length; all-zero and constant recordings; a moving sum
// that rounds below zero, so negative envelope values reach the histogram; a
// recording whose median is zero only through the trailing zero centers, and
// one where counting each rewrite of center 0 would move the median),
// and event windows longer than 64 samples (the FFT auto-convolution) or
// clipped at either edge of the recording.
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

// Recordings around the fold's edges: n below `smooth` (the window shrinks
// to n), at and around its half-width (where center 0 stops being
// rewritten), and around `smooth` itself (the trailing zero centers), each
// as plain noise and as noise with a 20x burst in its middle third.
TEST(OracleEventDetectTest, ShortRecordingsMatchNaive) {
  const core::AdaptiveEventDetector detector;
  ASSERT_EQ(detector.config().smooth, 16u);
  Rng rng(0x5407ULL);
  for (std::size_t n : {1UL, 2UL, 7UL, 8UL, 9UL, 15UL, 16UL, 17UL, 33UL}) {
    std::vector<double> x(n);
    for (double& v : x) v = rng.normal(0.0, 0.05);
    for (bool burst : {false, true}) {
      if (burst)
        for (std::size_t i = n / 3; i < 2 * n / 3; ++i) x[i] *= 20.0;
      const audio::Waveform rec(x, 48000.0);
      expect_same_events(detector.detect(rec),
                         check::event_detect_naive(rec.view(), detector.config()),
                         "n=" + std::to_string(n) + (burst ? " burst" : " noise"));
    }
  }
}

TEST(OracleEventDetectTest, ZeroAndConstantRecordingsMatchNaive) {
  const core::AdaptiveEventDetector detector;
  for (std::size_t n : {1UL, 16UL, 4096UL}) {
    for (double level : {0.0, 0.3, -1e-160}) {
      const audio::Waveform rec(std::vector<double>(n, level), 48000.0);
      expect_same_events(detector.detect(rec),
                         check::event_detect_naive(rec.view(), detector.config()),
                         "n=" + std::to_string(n) + " level=" + std::to_string(level));
    }
  }
}

// A tiny power term absorbed into a sum of 1 and then removed from it leaves
// 1 - ulp; removing the 1 leaves the moving sum at -2^-53 over the zeros that
// follow, so negative envelope values fill the histogram's sign buckets (and
// hold the median). Bursts later in the recording open real events on top
// of that offset.
TEST(OracleEventDetectTest, NegativeEnvelopeMatchesNaive) {
  const core::AdaptiveEventDetector detector;
  const std::size_t s = detector.config().smooth;
  std::vector<double> x(2048, 0.0);
  x[0] = std::sqrt(6e-17);
  x[1] = 1.0;
  for (std::size_t start : {1500UL, 1800UL})
    for (std::size_t i = start; i < start + 64; ++i) x[i] = i % 2 == 0 ? 0.5 : -0.5;

  // The construction's precondition, from the same moving sum: envelope
  // values below zero, and more than half of them.
  double run = 0.0;
  std::size_t negative = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    run += x[i] * x[i];
    if (i >= s) run -= x[i - s] * x[i - s];
    negative += run < 0.0;
  }
  ASSERT_GT(negative, x.size() / 2);

  const audio::Waveform rec(x, 48000.0);
  const std::vector<core::Event> got = detector.detect(rec);
  expect_same_events(got, check::event_detect_naive(rec.view(), detector.config()),
                     "negative envelope");
  EXPECT_EQ(got.size(), 2u);
}

// The trailing zero centers decide the median here. The first 2049 samples
// are silent, so 2041 computed centers are zero and the 8 trailing ones make
// 2049 of 4096: the median is 0 and the floor gate passes every peak.
// Without those 8 the middle ranks would fall on the floor F = 2^-8 (a burst
// of 32F leads out of the silence, so its rising edge sorts above F), whose
// bracket starts at F exactly: a second burst peaking at 5F < 6F would be
// dropped. Both bursts clear 3x the global mean (~1.1F).
TEST(OracleEventDetectTest, TrailingZeroCentersDecideTheMedian) {
  const double floor_amp = 1.0 / 16.0;
  std::vector<double> x(4096, 0.0);
  for (std::size_t i = 2049; i < x.size(); ++i) x[i] = i % 2 == 0 ? floor_amp : -floor_amp;
  for (std::size_t i = 2049; i < 2049 + 64; ++i) x[i] *= std::sqrt(32.0);
  for (std::size_t i = 3000; i < 3064; ++i) x[i] *= std::sqrt(5.0);
  const audio::Waveform rec(x, 48000.0);
  const core::AdaptiveEventDetector detector;
  const std::vector<core::Event> got = detector.detect(rec);
  expect_same_events(got, check::event_detect_naive(rec.view(), detector.config()),
                     "trailing zeros");
  EXPECT_EQ(got.size(), 2u);
}

// Center 0 is rewritten `half` times before it is final; only its final
// value counts. A 32F burst opens the recording, so a count of each rewrite
// would add 8 values above the median. Silence after it leaves 2041 zero
// centers, and with the 8 trailing ones 2049 of 4096: the median is 0. Eight
// more values would move the middle ranks onto the floor F = 2^-8 (a second
// 32F burst leads out of the silence, so no rising edge sorts below F), and
// a burst peaking at 5F < 6F would be dropped. It clears 3x the global mean
// (~1.5F).
TEST(OracleEventDetectTest, RewrittenHeadCenterCountsOnce) {
  const double floor_amp = 1.0 / 16.0;
  std::vector<double> x(4096, 0.0);
  const auto fill = [&](std::size_t from, std::size_t to, double power_ratio) {
    for (std::size_t i = from; i < to; ++i)
      x[i] = (i % 2 == 0 ? floor_amp : -floor_amp) * std::sqrt(power_ratio);
  };
  fill(0, 64, 32.0);
  fill(64 + 2057, 64 + 2057 + 64, 32.0);
  fill(64 + 2057 + 64, x.size(), 1.0);
  fill(3500, 3564, 5.0);
  const audio::Waveform rec(x, 48000.0);
  const core::AdaptiveEventDetector detector;
  const std::vector<core::Event> got = detector.detect(rec);
  expect_same_events(got, check::event_detect_naive(rec.view(), detector.config()),
                     "rewritten head");
  EXPECT_EQ(got.size(), 2u);
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
      expect_same_segment(got, check::segment_naive(rec.view(), e, segmenter.config(),
                                               segmenter.probe()),
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
  const std::size_t interval = segmenter.probe().interval_samples();
  for (std::size_t r = 0; r < cohort().size(); r += 37) {
    const audio::Waveform& rec = cohort()[r];
    const std::size_t n = rec.size();
    for (std::size_t len : {16UL, 40UL, 64UL, 65UL, 100UL, 131UL, 200UL, 480UL}) {
      std::vector<core::Event> windows = {{0, len}, {n - len, n}};
      for (std::size_t start = 3; start + len <= n; start += 7 * interval + 5)
        windows.push_back({start, start + len});
      for (const core::Event& e : windows)
        expect_same_segment(segmenter.segment(rec, e),
                            check::segment_naive(rec.view(), e, segmenter.config(),
                                                 segmenter.probe()),
                            "recording " + std::to_string(r) + " [" +
                                std::to_string(e.start) + ", " + std::to_string(e.end) +
                                ")");
    }
  }
}

}  // namespace
}  // namespace earsonar
