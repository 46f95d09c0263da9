// Window, biquad, Butterworth, FIR, and Goertzel tests.
#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "common/rng.hpp"
#include "dsp/butterworth.hpp"
#include "dsp/fft.hpp"
#include "dsp/fir.hpp"
#include "dsp/goertzel.hpp"
#include "dsp/window.hpp"

namespace earsonar::dsp {
namespace {

std::vector<double> sine(std::size_t n, double freq, double fs, double amp = 1.0) {
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i)
    x[i] = amp * std::sin(2.0 * std::numbers::pi * freq * i / fs);
  return x;
}

// ----------------------------------------------------------------- windows

TEST(WindowTest, HannEndsAtZeroPeaksAtOne) {
  const auto w = hann_window(65);
  EXPECT_NEAR(w.front(), 0.0, 1e-12);
  EXPECT_NEAR(w.back(), 0.0, 1e-12);
  EXPECT_NEAR(w[32], 1.0, 1e-12);
}

TEST(WindowTest, HammingEndsAtPointZeroEight) {
  const auto w = hamming_window(11);
  EXPECT_NEAR(w.front(), 0.08, 1e-9);
  EXPECT_NEAR(w[5], 1.0, 1e-9);
}

TEST(WindowTest, BlackmanEndsNearZero) {
  const auto w = blackman_window(33);
  EXPECT_NEAR(w.front(), 0.0, 1e-9);
  EXPECT_NEAR(w[16], 1.0, 1e-9);
}

TEST(WindowTest, AllWindowsAreSymmetric) {
  for (auto type : {WindowType::kHann, WindowType::kHamming, WindowType::kBlackman,
                    WindowType::kBlackmanHarris, WindowType::kGaussian}) {
    const auto w = make_window(type, 31);
    for (std::size_t i = 0; i < w.size(); ++i)
      EXPECT_NEAR(w[i], w[w.size() - 1 - i], 1e-12) << static_cast<int>(type);
  }
}

TEST(WindowTest, RectangularIsAllOnes) {
  const auto w = make_window(WindowType::kRectangular, 7);
  for (double v : w) EXPECT_DOUBLE_EQ(v, 1.0);
}

TEST(WindowTest, LengthOneWindowIsOne) {
  EXPECT_DOUBLE_EQ(hann_window(1)[0], 1.0);
}

TEST(WindowTest, ApplyWindowMultipliesElementwise) {
  const std::vector<double> x{1, 2, 3};
  const std::vector<double> w{0.5, 1.0, 2.0};
  const auto y = apply_window(x, w);
  EXPECT_DOUBLE_EQ(y[0], 0.5);
  EXPECT_DOUBLE_EQ(y[1], 2.0);
  EXPECT_DOUBLE_EQ(y[2], 6.0);
}

TEST(WindowTest, ApplyWindowSizeMismatchThrows) {
  std::vector<double> x{1, 2};
  const std::vector<double> w{1};
  EXPECT_THROW(apply_window_inplace(x, w), std::invalid_argument);
}

TEST(WindowTest, WindowSumsArePositive) {
  const auto w = hann_window(64);
  EXPECT_GT(window_power(w), 0.0);
}

// ----------------------------------------------------------------- biquads

TEST(BiquadTest, IdentityPassesSignal) {
  BiquadCascade cascade({Biquad{}});
  const std::vector<double> x{1, -2, 3};
  const auto y = cascade.process(x);
  EXPECT_EQ(y, x);
}

TEST(BiquadTest, StabilityCheck) {
  Biquad stable{1, 0, 0, -0.5, 0.25};
  Biquad unstable{1, 0, 0, -2.5, 1.5};
  EXPECT_TRUE(stable.is_stable());
  EXPECT_FALSE(unstable.is_stable());
}

TEST(BiquadTest, ResponseAtDcForMovingAverage) {
  // y = (x + x[-1])/2 has |H(0)| = 1, |H(pi)| = 0.
  Biquad ma{0.5, 0.5, 0, 0, 0};
  EXPECT_NEAR(std::abs(ma.response(0.0)), 1.0, 1e-12);
  EXPECT_NEAR(std::abs(ma.response(std::numbers::pi)), 0.0, 1e-12);
}

TEST(BiquadTest, FiltfiltPreservesLength) {
  BiquadCascade cascade = butterworth_lowpass(4, 1000.0, 48000.0);
  const std::vector<double> x(333, 1.0);
  EXPECT_EQ(cascade.filtfilt(x).size(), x.size());
}

TEST(BiquadTest, ResetClearsState) {
  BiquadCascade cascade = butterworth_lowpass(2, 1000.0, 48000.0);
  const std::vector<double> x(64, 1.0);
  const auto y1 = cascade.process(x);
  cascade.reset();
  const auto y2 = cascade.process(x);
  EXPECT_EQ(y1, y2);
}

// ------------------------------------------------------------- butterworth

class ButterworthOrder : public ::testing::TestWithParam<int> {};

TEST_P(ButterworthOrder, LowpassPassesDcBlocksHigh) {
  const auto f = butterworth_lowpass(GetParam(), 2000.0, 48000.0);
  EXPECT_TRUE(f.is_stable());
  EXPECT_NEAR(f.magnitude_at(0.0, 48000.0), 1.0, 1e-6);
  EXPECT_NEAR(f.magnitude_at(2000.0, 48000.0), std::numbers::sqrt2 / 2.0, 0.01);
  EXPECT_LT(f.magnitude_at(10000.0, 48000.0), 0.05);
}

TEST_P(ButterworthOrder, BandpassSelectsBand) {
  const auto f = butterworth_bandpass(GetParam(), 16000.0, 20000.0, 48000.0);
  EXPECT_TRUE(f.is_stable());
  EXPECT_NEAR(f.magnitude_at(std::sqrt(16000.0 * 20000.0), 48000.0), 1.0, 0.02);
  EXPECT_LT(f.magnitude_at(8000.0, 48000.0), 0.05);
  EXPECT_LT(f.magnitude_at(23000.0, 48000.0), 0.2);
  EXPECT_GT(f.magnitude_at(18000.0, 48000.0), 0.9);
}

TEST_P(ButterworthOrder, BandpassSectionCountIsOrder) {
  const auto f = butterworth_bandpass(GetParam(), 16000.0, 20000.0, 48000.0);
  EXPECT_EQ(f.section_count(), static_cast<std::size_t>(GetParam()));
}

// Order 1 is tested separately: a first-order skirt is too shallow for the
// strict stop-band bounds above.
INSTANTIATE_TEST_SUITE_P(Orders, ButterworthOrder, ::testing::Values(2, 3, 4, 5, 6, 8));

TEST(ButterworthTest, OrderOneHasShallowSkirt) {
  const auto lp = butterworth_lowpass(1, 2000.0, 48000.0);
  EXPECT_TRUE(lp.is_stable());
  EXPECT_NEAR(lp.magnitude_at(0.0, 48000.0), 1.0, 1e-6);
  EXPECT_NEAR(lp.magnitude_at(2000.0, 48000.0), std::numbers::sqrt2 / 2.0, 0.01);
  EXPECT_LT(lp.magnitude_at(10000.0, 48000.0), 0.3);
  const auto bp = butterworth_bandpass(1, 16000.0, 20000.0, 48000.0);
  EXPECT_TRUE(bp.is_stable());
  EXPECT_LT(bp.magnitude_at(8000.0, 48000.0), 0.3);
  EXPECT_GT(bp.magnitude_at(18000.0, 48000.0), 0.9);
}

TEST(ButterworthTest, HigherOrderIsSteeper) {
  const auto f2 = butterworth_lowpass(2, 2000.0, 48000.0);
  const auto f6 = butterworth_lowpass(6, 2000.0, 48000.0);
  EXPECT_GT(f2.magnitude_at(4000.0, 48000.0), f6.magnitude_at(4000.0, 48000.0));
}

TEST(ButterworthTest, PassbandIsMaximallyFlat) {
  const auto f = butterworth_lowpass(4, 4000.0, 48000.0);
  for (double freq : {100.0, 500.0, 1000.0, 2000.0})
    EXPECT_NEAR(f.magnitude_at(freq, 48000.0), 1.0, 0.01) << freq;
}

TEST(ButterworthTest, FiltersSineMixture) {
  // 18 kHz should survive the paper's band-pass; 5 kHz should not.
  auto f = butterworth_bandpass(4, 15000.0, 21000.0, 48000.0);
  const std::size_t n = 4800;
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i)
    x[i] = std::sin(2 * std::numbers::pi * 18000 * i / 48000.0) +
           std::sin(2 * std::numbers::pi * 5000 * i / 48000.0);
  const auto y = f.process(x);
  // Unnormalized |X(f)| over the 3000-sample window: the in-band tone keeps
  // nearly its full N/2 line, the stop-band tone is crushed below 1% of N.
  const double in_band = goertzel_magnitude({y.data() + 1000, 3000}, 18000.0, 48000.0);
  const double out_band = goertzel_magnitude({y.data() + 1000, 3000}, 5000.0, 48000.0);
  EXPECT_GT(in_band, 0.4 * 3000.0);
  EXPECT_LT(out_band, 0.01 * 3000.0);
}

TEST(ButterworthTest, InvalidParametersThrow) {
  EXPECT_THROW(butterworth_lowpass(0, 1000, 48000), std::invalid_argument);
  EXPECT_THROW(butterworth_lowpass(4, 0, 48000), std::invalid_argument);
  EXPECT_THROW(butterworth_lowpass(4, 25000, 48000), std::invalid_argument);
  EXPECT_THROW(butterworth_bandpass(4, 20000, 16000, 48000), std::invalid_argument);
  EXPECT_THROW(butterworth_bandpass(17, 100, 200, 48000), std::invalid_argument);
}

// ------------------------------------------------------------------- FIR

TEST(FirTest, FromMagnitudeHitsTargets) {
  const std::vector<double> freqs{2000.0, 8000.0, 16000.0, 22000.0};
  const std::vector<double> mags{1.0, 0.5, 0.8, 0.2};
  const auto h = fir_from_magnitude(freqs, mags, 127, 48000.0);
  for (std::size_t i = 0; i < freqs.size(); ++i)
    EXPECT_NEAR(fir_magnitude_at(h, freqs[i], 48000.0), mags[i], 0.08) << freqs[i];
}

TEST(FirTest, FromMagnitudeRequiresAscendingFrequencies) {
  const std::vector<double> freqs{8000.0, 2000.0};
  const std::vector<double> mags{1.0, 1.0};
  EXPECT_THROW(fir_from_magnitude(freqs, mags, 63, 48000.0), std::invalid_argument);
}

TEST(FirTest, FromMagnitudeRejectsNegativeTargets) {
  const std::vector<double> freqs{1000.0, 2000.0};
  const std::vector<double> mags{1.0, -0.5};
  EXPECT_THROW(fir_from_magnitude(freqs, mags, 63, 48000.0), std::invalid_argument);
}

// A low-pass shape the frequency-sampling designer renders as a symmetric,
// linear-phase kernel.
std::vector<double> lowpass_kernel(std::size_t taps) {
  const std::vector<double> freqs{0.0, 6000.0, 10000.0, 24000.0};
  const std::vector<double> mags{1.0, 1.0, 0.0, 0.0};
  return fir_from_magnitude(freqs, mags, taps, 48000.0);
}

TEST(FirTest, KernelsAreSymmetric) {
  const auto h = lowpass_kernel(31);
  for (std::size_t i = 0; i < h.size(); ++i)
    EXPECT_NEAR(h[i], h[h.size() - 1 - i], 1e-12);
}

TEST(FirTest, EvenTapsRejected) {
  const std::vector<double> freqs{1000.0, 2000.0};
  const std::vector<double> mags{1.0, 1.0};
  EXPECT_THROW(fir_from_magnitude(freqs, mags, 32, 48000.0), std::invalid_argument);
  EXPECT_THROW(fir_from_magnitude(freqs, mags, 1, 48000.0), std::invalid_argument);
}

TEST(FirTest, MagnitudeAtMatchesLiteralKernel) {
  // {0.5, 0.5} is a two-tap average: |H(f)| = |cos(pi f / fs)|.
  const std::vector<double> h{0.5, 0.5};
  EXPECT_NEAR(fir_magnitude_at(h, 0.0, 48000.0), 1.0, 1e-12);
  EXPECT_NEAR(fir_magnitude_at(h, 12000.0, 48000.0), std::numbers::sqrt2 / 2.0, 1e-12);
  EXPECT_NEAR(fir_magnitude_at(h, 24000.0, 48000.0), 0.0, 1e-12);
}

TEST(FirTest, FilterSameAlignsWithInput) {
  // A delta through a symmetric kernel must land back on its own position.
  std::vector<double> x(64, 0.0);
  x[30] = 1.0;
  const auto h = lowpass_kernel(31);
  const auto y = fir_filter_same(x, h);
  ASSERT_EQ(y.size(), x.size());
  std::size_t peak = 0;
  for (std::size_t i = 1; i < y.size(); ++i)
    if (y[i] > y[peak]) peak = i;
  EXPECT_EQ(peak, 30u);
}

// ---------------------------------------------------------------- goertzel

// Convention: |X(f)| on the same scale as magnitude_spectrum bins, so a
// full-scale bin-exact sine of length N reports N/2 (and power N/4).
TEST(GoertzelTest, FullScaleSineMagnitude) {
  const auto x = sine(4800, 18000.0, 48000.0);
  EXPECT_NEAR(goertzel_magnitude(x, 18000.0, 48000.0), 2400.0, 2400.0 * 0.01);
  EXPECT_NEAR(goertzel_power(x, 18000.0, 48000.0), 1200.0, 1200.0 * 0.01);
}

TEST(GoertzelTest, OffFrequencyIsSmall) {
  const auto x = sine(4800, 18000.0, 48000.0);
  EXPECT_LT(goertzel_magnitude(x, 12000.0, 48000.0), 0.01 * 4800);
}

// The satellite cross-check for the normalization fix: Goertzel must agree
// with the FFT spectrum helpers bin for bin, at several bin-exact
// frequencies. (The off-bin cross-check against the literal DTFT sum lives
// in tests/oracle/oracle_dsp_test.cpp as pair dsp.goertzel.)
TEST(GoertzelTest, MatchesFftBin) {
  const auto x = sine(512, 9000.0, 48000.0, 0.7);
  const auto mag = magnitude_spectrum(x);
  const auto power = power_spectrum(x);
  for (double f : {9000.0, 4500.0, 9375.0, 0.0, 24000.0}) {
    const std::size_t bin = frequency_to_bin(f, 512, 48000.0);
    const double gm = goertzel_magnitude(x, f, 48000.0);
    const double gp = goertzel_power(x, f, 48000.0);
    EXPECT_NEAR(gm, mag[bin], 1e-7 * (1.0 + mag[bin])) << "f=" << f;
    EXPECT_NEAR(gp, power[bin], 1e-7 * (1.0 + power[bin])) << "f=" << f;
  }
  EXPECT_NEAR(goertzel_magnitude(x, 9000.0, 48000.0), 0.35 * 512.0, 0.01 * 512.0);
}

TEST(GoertzelTest, RejectsAboveNyquist) {
  const std::vector<double> x(16, 1.0);
  EXPECT_THROW(goertzel_magnitude(x, 25000.0, 48000.0), std::invalid_argument);
}

}  // namespace
}  // namespace earsonar::dsp
