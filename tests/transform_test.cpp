// DCT, mel scale, interpolation, and STFT tests.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <numbers>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "dsp/dct.hpp"
#include "dsp/interpolate.hpp"
#include "dsp/mel.hpp"
#include "dsp/stft.hpp"

namespace earsonar::dsp {
namespace {

// ------------------------------------------------------------------- DCT

TEST(DctTest, RoundTripRecoversInput) {
  Rng rng(3);
  std::vector<double> x(24);
  for (double& v : x) v = rng.uniform(-2, 2);
  const auto y = idct2(dct2(x));
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_NEAR(y[i], x[i], 1e-10);
}

TEST(DctTest, OrthonormalPreservesEnergy) {
  Rng rng(4);
  std::vector<double> x(16);
  for (double& v : x) v = rng.uniform(-1, 1);
  const auto y = dct2(x);
  double ex = 0, ey = 0;
  for (double v : x) ex += v * v;
  for (double v : y) ey += v * v;
  EXPECT_NEAR(ex, ey, 1e-10);
}

TEST(DctTest, ConstantInputOnlyDcCoefficient) {
  const std::vector<double> x(8, 3.0);
  const auto y = dct2(x);
  EXPECT_NEAR(y[0], 3.0 * std::sqrt(8.0), 1e-10);
  for (std::size_t k = 1; k < y.size(); ++k) EXPECT_NEAR(y[k], 0.0, 1e-10);
}

TEST(DctTest, CosineInputConcentratesInOneCoefficient) {
  const std::size_t n = 32;
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i)
    x[i] = std::cos(std::numbers::pi / n * (i + 0.5) * 3.0);  // basis k=3
  const auto y = dct2(x);
  for (std::size_t k = 0; k < n; ++k) {
    if (k == 3) EXPECT_GT(std::abs(y[k]), 1.0);
    else EXPECT_NEAR(y[k], 0.0, 1e-9);
  }
}

TEST(DctTest, TruncationKeepsLeadingCoefficients) {
  Rng rng(5);
  std::vector<double> x(20);
  for (double& v : x) v = rng.uniform(-1, 1);
  const auto full = dct2(x);
  const auto trunc = dct2_truncated(x, 5);
  ASSERT_EQ(trunc.size(), 5u);
  for (std::size_t k = 0; k < 5; ++k) EXPECT_DOUBLE_EQ(trunc[k], full[k]);
}

std::vector<double> dct_input(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> x(n);
  for (double& v : x) v = rng.uniform(-3, 3);
  return x;
}

std::vector<std::uint64_t> bits(const std::vector<double>& v, std::size_t count) {
  std::vector<std::uint64_t> out;
  for (std::size_t k = 0; k < count; ++k) out.push_back(std::bit_cast<std::uint64_t>(v[k]));
  return out;
}

// The orthonormal DCT-II with cos() evaluated in every term, in dct2's
// operation order.
std::vector<double> dct2_per_term_cos(std::span<const double> x) {
  const std::size_t n = x.size();
  std::vector<double> out(n);
  for (std::size_t k = 0; k < n; ++k) {
    double acc = 0.0;
    for (std::size_t i = 0; i < n; ++i)
      acc += x[i] * std::cos(std::numbers::pi / static_cast<double>(n) *
                             (static_cast<double>(i) + 0.5) * static_cast<double>(k));
    out[k] = acc * std::sqrt((k == 0 ? 1.0 : 2.0) / static_cast<double>(n));
  }
  return out;
}

TEST(DctTest, TruncationIsBitIdenticalPrefixAtEverySize) {
  for (std::size_t n = 1; n <= 64; ++n) {
    const std::vector<double> x = dct_input(n, 100 + n);
    const std::vector<double> full = dct2(x);
    ASSERT_EQ(bits(full, n), bits(dct2_per_term_cos(x), n)) << "n=" << n;
    // Rows added to the cached basis one at a time, then read back shrinking.
    for (std::size_t count = 0; count <= n; ++count)
      ASSERT_EQ(bits(dct2_truncated(x, count), count), bits(full, count))
          << "n=" << n << " count=" << count;
    for (std::size_t count = n + 1; count-- > 0;)
      ASSERT_EQ(bits(dct2_truncated(x, count), count), bits(full, count))
          << "n=" << n << " count=" << count;
  }
}

TEST(DctTest, TruncationAlternatingSizesRebuildsBasis) {
  // The per-thread basis follows the size of each call: alternate sizes and
  // row counts on one thread, against full transforms taken beforehand.
  const std::vector<std::size_t> sizes{24, 13, 24, 64, 1, 24, 2, 63, 24};
  std::vector<std::vector<double>> inputs, fulls;
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    inputs.push_back(dct_input(sizes[i], 900 + i));
    fulls.push_back(dct2_per_term_cos(inputs.back()));
  }
  for (std::size_t round = 1; round <= 3; ++round)
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      const std::size_t count = sizes[i] * round / 3;
      ASSERT_EQ(bits(dct2_truncated(inputs[i], count), count), bits(fulls[i], count))
          << "round " << round << " n=" << sizes[i];
    }
}

TEST(DctTest, TruncationBeyondSizeThrows) {
  const std::vector<double> x(4, 1.0);
  EXPECT_THROW(dct2_truncated(x, 5), std::invalid_argument);
}

// ------------------------------------------------------------------- mel

TEST(MelTest, HzMelRoundTrip) {
  for (double hz : {100.0, 1000.0, 8000.0, 18000.0})
    EXPECT_NEAR(mel_to_hz(hz_to_mel(hz)), hz, 1e-6);
}

TEST(MelTest, MelScaleIsMonotone) {
  double prev = -1.0;
  for (double hz = 0.0; hz <= 22000.0; hz += 500.0) {
    const double mel = hz_to_mel(hz);
    EXPECT_GT(mel, prev);
    prev = mel;
  }
}

TEST(MelTest, KnownAnchor1000Hz) {
  // 1000 Hz is ~1000 mel by construction of the scale.
  EXPECT_NEAR(hz_to_mel(1000.0), 999.99, 0.5);
}

// ---------------------------------------------------------- interpolation

TEST(SampleFractionalSincTest, ExactAtIntegerIndices) {
  const std::vector<double> x{1, -2, 3, -4, 5};
  for (std::size_t i = 0; i < x.size(); ++i)
    EXPECT_NEAR(sample_fractional_sinc(x, static_cast<double>(i)), x[i], 1e-9);
}

TEST(SampleFractionalSincTest, FlatResponseNearBandTop) {
  // Sample an 19 kHz sine at half-sample offsets; windowed-sinc must keep the
  // amplitude within a fraction of a dB (the Catmull-Rom version cannot).
  const double fs = 48000.0, f = 19000.0;
  std::vector<double> x(256);
  for (std::size_t i = 0; i < x.size(); ++i)
    x[i] = std::sin(2 * std::numbers::pi * f * i / fs);
  double worst = 0.0;
  for (std::size_t i = 100; i < 150; ++i) {
    const double t = static_cast<double>(i) + 0.5;
    const double expected = std::sin(2 * std::numbers::pi * f * t / fs);
    worst = std::max(worst, std::abs(sample_fractional_sinc(x, t) - expected));
  }
  EXPECT_LT(worst, 0.03);
}

TEST(SampleFractionalSincTest, CubicIsWorseNearBandTop) {
  // Catmull-Rom at a half-sample offset is the literal kernel
  // {-1, 9, 9, -1} / 16 over samples i-1 .. i+2.
  const double fs = 48000.0, f = 19000.0;
  std::vector<double> x(256);
  for (std::size_t i = 0; i < x.size(); ++i)
    x[i] = std::sin(2 * std::numbers::pi * f * i / fs);
  double worst_sinc = 0.0, worst_cubic = 0.0;
  for (std::size_t i = 100; i < 150; ++i) {
    const double t = static_cast<double>(i) + 0.5;
    const double expected = std::sin(2 * std::numbers::pi * f * t / fs);
    worst_sinc = std::max(worst_sinc, std::abs(sample_fractional_sinc(x, t) - expected));
    const double cubic = (-x[i - 1] + 9.0 * x[i] + 9.0 * x[i + 1] - x[i + 2]) / 16.0;
    worst_cubic = std::max(worst_cubic, std::abs(cubic - expected));
  }
  EXPECT_LT(worst_sinc, worst_cubic * 0.5);
}

TEST(ResampleRateTest, IdentityWhenRatesMatch) {
  const std::vector<double> x{1, 2, 3, 4};
  EXPECT_EQ(resample_to_rate(x, 48000.0, 48000.0), x);
}

TEST(ResampleRateTest, OutputLengthScalesWithRatio) {
  const std::vector<double> x(441, 0.0);
  const auto y = resample_to_rate(x, 44100.0, 48000.0);
  EXPECT_EQ(y.size(), 480u);
  const auto z = resample_to_rate(x, 44100.0, 22050.0);
  EXPECT_NEAR(static_cast<double>(z.size()), 220.5, 1.0);
}

TEST(ResampleRateTest, UpsamplingPreservesToneFrequency) {
  // 5 kHz tone at 44.1 kHz, resampled to 48 kHz, must still be a 5 kHz tone.
  std::vector<double> x(4410);
  for (std::size_t i = 0; i < x.size(); ++i)
    x[i] = std::sin(2 * std::numbers::pi * 5000.0 * i / 44100.0);
  const auto y = resample_to_rate(x, 44100.0, 48000.0);
  // Compare against the directly synthesized 48 kHz tone (skip edges).
  double err = 0.0;
  for (std::size_t i = 200; i + 200 < y.size(); ++i) {
    const double expected = std::sin(2 * std::numbers::pi * 5000.0 * i / 48000.0);
    err = std::max(err, std::abs(y[i] - expected));
  }
  EXPECT_LT(err, 0.02);
}

TEST(ResampleRateTest, DownsamplingSuppressesAliasedContent) {
  // 20 kHz content cannot survive a move to a 32 kHz rate (Nyquist 16 kHz);
  // without the anti-alias filter it would fold to 12 kHz.
  std::vector<double> x(48000);
  for (std::size_t i = 0; i < x.size(); ++i)
    x[i] = std::sin(2 * std::numbers::pi * 20000.0 * i / 48000.0);
  const auto y = resample_to_rate(x, 48000.0, 32000.0);
  double e = 0.0;
  for (double v : y) e += v * v;
  EXPECT_LT(e / static_cast<double>(y.size()), 0.01);  // alias suppressed
}

TEST(ResampleRateTest, InvalidRatesThrow) {
  const std::vector<double> x(10, 1.0);
  EXPECT_THROW(resample_to_rate(x, 0.0, 48000.0), std::invalid_argument);
  EXPECT_THROW(resample_to_rate(x, 48000.0, -1.0), std::invalid_argument);
}

// ------------------------------------------------------------------ STFT

TEST(StftTest, ToneConcentratesInOneBin) {
  std::vector<double> x(4800);
  for (std::size_t i = 0; i < x.size(); ++i)
    x[i] = std::sin(2 * std::numbers::pi * 6000.0 * i / 48000.0);
  const auto gram = stft(x, 48000.0);
  ASSERT_GT(gram.frames(), 0u);
  for (double f : peak_frequency_track(gram)) EXPECT_NEAR(f, 6000.0, 200.0);
}

TEST(StftTest, TrackFollowsChirpSweep) {
  // A slow chirp 2 kHz -> 10 kHz: the track must rise monotonically-ish.
  std::vector<double> x(48000);
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double t = static_cast<double>(i) / 48000.0;
    x[i] = std::sin(2 * std::numbers::pi * (2000.0 * t + 4000.0 * t * t));
  }
  const auto gram = stft(x, 48000.0);
  const auto track = peak_frequency_track(gram);
  EXPECT_LT(track.front(), 3500.0);
  EXPECT_GT(track.back(), 8000.0);
}

TEST(StftTest, FrameCountMatchesHop) {
  const std::vector<double> x(1024, 1.0);
  StftConfig cfg;
  cfg.window_length = 256;
  cfg.hop = 128;
  const auto gram = stft(x, 48000.0, cfg);
  EXPECT_GE(gram.frames(), 6u);
  EXPECT_LE(gram.frames(), 8u);
  EXPECT_EQ(gram.bins(), 129u);
}

TEST(StftTest, AxesAreConsistent) {
  const std::vector<double> x(2048, 0.5);
  const auto gram = stft(x, 48000.0);
  EXPECT_EQ(gram.time_s.size(), gram.frames());
  EXPECT_DOUBLE_EQ(gram.frequency_hz.front(), 0.0);
  EXPECT_DOUBLE_EQ(gram.frequency_hz.back(), 24000.0);
  for (std::size_t i = 1; i < gram.time_s.size(); ++i)
    EXPECT_GT(gram.time_s[i], gram.time_s[i - 1]);
}

TEST(StftTest, InvalidConfigsRejected) {
  const std::vector<double> x(512, 1.0);
  StftConfig cfg;
  cfg.fft_size = 100;  // not a power of two
  EXPECT_THROW(stft(x, 48000.0, cfg), std::invalid_argument);
  cfg = StftConfig{};
  cfg.hop = cfg.window_length + 1;
  EXPECT_THROW(stft(x, 48000.0, cfg), std::invalid_argument);
  EXPECT_THROW(stft(std::vector<double>(16, 1.0), 48000.0, StftConfig{}),
               std::invalid_argument);
}

}  // namespace
}  // namespace earsonar::dsp
