// FFT unit + property tests: round trips, known transforms, Parseval,
// linearity, Bluestein vs radix-2 agreement, frequency-axis helpers.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <numbers>

#include "common/rng.hpp"
#include "dsp/band_psd.hpp"
#include "dsp/fft.hpp"
#include "dsp/fft_plan.hpp"

namespace earsonar::dsp {
namespace {

constexpr double kTol = 1e-9;

std::vector<Complex> random_complex(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Complex> xs(n);
  for (auto& x : xs) x = Complex{rng.uniform(-1, 1), rng.uniform(-1, 1)};
  return xs;
}

TEST(FftBasicsTest, PowerOfTwoDetection) {
  EXPECT_TRUE(is_power_of_two(1));
  EXPECT_TRUE(is_power_of_two(2));
  EXPECT_TRUE(is_power_of_two(1024));
  EXPECT_FALSE(is_power_of_two(0));
  EXPECT_FALSE(is_power_of_two(3));
  EXPECT_FALSE(is_power_of_two(1023));
}

TEST(FftBasicsTest, NextPowerOfTwo) {
  EXPECT_EQ(next_power_of_two(1), 1u);
  EXPECT_EQ(next_power_of_two(2), 2u);
  EXPECT_EQ(next_power_of_two(3), 4u);
  EXPECT_EQ(next_power_of_two(1000), 1024u);
  EXPECT_THROW(next_power_of_two(0), std::invalid_argument);
}

TEST(FftBasicsTest, ImpulseTransformsToFlat) {
  std::vector<Complex> x(8, Complex{0, 0});
  x[0] = Complex{1, 0};
  const auto y = fft(x);
  for (const auto& v : y) {
    EXPECT_NEAR(v.real(), 1.0, kTol);
    EXPECT_NEAR(v.imag(), 0.0, kTol);
  }
}

TEST(FftBasicsTest, ConstantTransformsToDcBin) {
  std::vector<Complex> x(16, Complex{2.0, 0});
  const auto y = fft(x);
  EXPECT_NEAR(y[0].real(), 32.0, kTol);
  for (std::size_t k = 1; k < y.size(); ++k) EXPECT_NEAR(std::abs(y[k]), 0.0, kTol);
}

TEST(FftBasicsTest, SingleToneLandsInItsBin) {
  const std::size_t n = 64;
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i)
    x[i] = std::cos(2.0 * std::numbers::pi * 5.0 * i / n);
  const auto y = fft_real(x);
  EXPECT_NEAR(std::abs(y[5]), n / 2.0, 1e-8);
  EXPECT_NEAR(std::abs(y[n - 5]), n / 2.0, 1e-8);
  EXPECT_NEAR(std::abs(y[4]), 0.0, 1e-8);
}

TEST(FftBasicsTest, FftThrowsOnEmpty) {
  const std::vector<Complex> empty;
  EXPECT_THROW(fft(empty), std::invalid_argument);
  EXPECT_THROW(ifft(empty), std::invalid_argument);
}

TEST(FftBasicsTest, Radix2InPlaceRejectsNonPower) {
  std::vector<Complex> x(6);
  EXPECT_THROW(fft_radix2_inplace(x), std::invalid_argument);
}

class FftRoundTrip : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FftRoundTrip, IfftInvertsFft) {
  const std::size_t n = GetParam();
  const auto x = random_complex(n, 42 + n);
  const auto y = ifft(fft(x));
  ASSERT_EQ(y.size(), n);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(y[i].real(), x[i].real(), 1e-8) << "n=" << n << " i=" << i;
    EXPECT_NEAR(y[i].imag(), x[i].imag(), 1e-8);
  }
}

TEST_P(FftRoundTrip, ParsevalHolds) {
  const std::size_t n = GetParam();
  const auto x = random_complex(n, 17 + n);
  const auto y = fft(x);
  double time_energy = 0.0, freq_energy = 0.0;
  for (const auto& v : x) time_energy += std::norm(v);
  for (const auto& v : y) freq_energy += std::norm(v);
  EXPECT_NEAR(freq_energy / static_cast<double>(n), time_energy, 1e-7 * (1 + time_energy));
}

TEST_P(FftRoundTrip, LinearityHolds) {
  const std::size_t n = GetParam();
  const auto a = random_complex(n, 1 + n);
  const auto b = random_complex(n, 2 + n);
  std::vector<Complex> sum(n);
  for (std::size_t i = 0; i < n; ++i) sum[i] = 2.0 * a[i] + 3.0 * b[i];
  const auto fa = fft(a);
  const auto fb = fft(b);
  const auto fsum = fft(sum);
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_NEAR(std::abs(fsum[i] - (2.0 * fa[i] + 3.0 * fb[i])), 0.0, 1e-7);
}

// Mix of power-of-two (radix-2 path) and awkward sizes (Bluestein path:
// primes, prime powers, even composites).
INSTANTIATE_TEST_SUITE_P(Sizes, FftRoundTrip,
                         ::testing::Values(1, 2, 4, 8, 64, 256, 3, 5, 7, 12, 15, 31, 73,
                                           100, 127, 243, 500));

TEST(FftBluesteinTest, MatchesRadix2OnPowerOfTwoSizes) {
  // Force Bluestein by comparing a 64-point radix-2 transform with a 64-point
  // transform computed through the chirp-z path on the same data, using a
  // 63+1 padding trick: instead compare fft of size 63 against a DFT oracle.
  const std::size_t n = 63;
  const auto x = random_complex(n, 99);
  const auto y = fft(x);
  // Direct O(n^2) DFT oracle.
  for (std::size_t k = 0; k < n; ++k) {
    Complex acc{0, 0};
    for (std::size_t i = 0; i < n; ++i) {
      const double angle = -2.0 * std::numbers::pi * static_cast<double>(k * i) / n;
      acc += x[i] * Complex{std::cos(angle), std::sin(angle)};
    }
    EXPECT_NEAR(std::abs(y[k] - acc), 0.0, 1e-7) << "bin " << k;
  }
}

TEST(RfftTest, ReturnsHalfSpectrumPlusOne) {
  std::vector<double> x(32, 1.0);
  EXPECT_EQ(rfft(x).size(), 17u);
}

TEST(RfftTest, HermitianSymmetryImplied) {
  Rng rng(5);
  std::vector<double> x(64);
  for (double& v : x) v = rng.uniform(-1, 1);
  const auto full = fft_real(x);
  for (std::size_t k = 1; k < 32; ++k)
    EXPECT_NEAR(std::abs(full[k] - std::conj(full[64 - k])), 0.0, 1e-9);
}

TEST(SpectrumHelpersTest, MagnitudeSpectrumOfSine) {
  const std::size_t n = 128;
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i)
    x[i] = 3.0 * std::sin(2.0 * std::numbers::pi * 10.0 * i / n);
  const auto mag = magnitude_spectrum(x);
  EXPECT_NEAR(mag[10], 3.0 * n / 2.0, 1e-6);
}

TEST(SpectrumHelpersTest, PowerSpectrumParsevalNormalization) {
  Rng rng(8);
  std::vector<double> x(256);
  for (double& v : x) v = rng.uniform(-1, 1);
  const auto power = power_spectrum(x);
  // Sum over bins (doubling implied by one-sidedness is absent here since we
  // report |X|^2/N for the first half) should be close to the time energy
  // when mirrored: check it is at least half and at most all of it.
  double freq_sum = 0.0;
  for (double p : power) freq_sum += p;
  double time_energy = 0.0;
  for (double v : x) time_energy += v * v;
  EXPECT_GT(freq_sum, 0.4 * time_energy);
  EXPECT_LT(freq_sum, 1.1 * time_energy);
}

TEST(BinMathTest, BinFrequencyAndInverse) {
  EXPECT_DOUBLE_EQ(bin_frequency(0, 512, 48000.0), 0.0);
  EXPECT_DOUBLE_EQ(bin_frequency(256, 512, 48000.0), 24000.0);
  EXPECT_EQ(frequency_to_bin(18000.0, 512, 48000.0), 192u);
  EXPECT_EQ(frequency_to_bin(bin_frequency(100, 512, 48000.0), 512, 48000.0), 100u);
}

TEST(BinMathTest, FrequencyToBinRejectsAboveNyquist) {
  EXPECT_THROW(frequency_to_bin(25000.0, 512, 48000.0), std::invalid_argument);
}

// --- Planned-FFT engine --------------------------------------------------

// Direct O(n^2) DFT oracle.
std::vector<Complex> naive_dft(std::span<const Complex> x) {
  const std::size_t n = x.size();
  std::vector<Complex> y(n);
  for (std::size_t k = 0; k < n; ++k) {
    Complex acc{0, 0};
    for (std::size_t i = 0; i < n; ++i) {
      const double angle =
          -2.0 * std::numbers::pi * static_cast<double>(k * i) / static_cast<double>(n);
      acc += x[i] * Complex{std::cos(angle), std::sin(angle)};
    }
    y[k] = acc;
  }
  return y;
}

class FftPlanVsDft : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FftPlanVsDft, ForwardMatchesNaiveDft) {
  const std::size_t n = GetParam();
  const auto x = random_complex(n, 1234 + n);
  const auto oracle = naive_dft(x);
  const auto plan = FftPlan::get(n, FftPlan::Kind::kComplex);
  FftScratch scratch;
  std::vector<Complex> y(n);
  plan->forward(x, y, scratch);
  for (std::size_t k = 0; k < n; ++k)
    EXPECT_NEAR(std::abs(y[k] - oracle[k]), 0.0, 1e-7 * (1.0 + std::abs(oracle[k])))
        << "n=" << n << " bin " << k;
}

TEST_P(FftPlanVsDft, InverseInvertsForward) {
  const std::size_t n = GetParam();
  const auto x = random_complex(n, 77 + n);
  const auto plan = FftPlan::get(n, FftPlan::Kind::kComplex);
  FftScratch scratch;
  std::vector<Complex> y(n), back(n);
  plan->forward(x, y, scratch);
  plan->inverse(y, back, scratch);
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_NEAR(std::abs(back[i] - x[i]), 0.0, 1e-8) << "n=" << n << " i=" << i;
}

// Powers of two (radix-2), odd composites and primes (Bluestein).
INSTANTIATE_TEST_SUITE_P(Sizes, FftPlanVsDft,
                         ::testing::Values(1, 2, 4, 8, 64, 256, 9, 15, 45, 7, 31, 73, 127));

class FftPlanRealSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FftPlanRealSizes, ForwardRealMatchesFullFft) {
  const std::size_t n = GetParam();
  Rng rng(300 + n);
  std::vector<double> x(n);
  for (double& v : x) v = rng.uniform(-1, 1);
  const auto full = fft_real(x);
  const auto plan = FftPlan::get(n, FftPlan::Kind::kReal);
  FftScratch scratch;
  std::vector<Complex> half(plan->real_bins());
  plan->forward_real(x, half, scratch);
  ASSERT_EQ(half.size(), n / 2 + 1);
  for (std::size_t k = 0; k < half.size(); ++k)
    EXPECT_NEAR(std::abs(half[k] - full[k]), 0.0, 1e-8 * (1.0 + std::abs(full[k])))
        << "n=" << n << " bin " << k;
}

TEST_P(FftPlanRealSizes, InverseRealRoundTrips) {
  const std::size_t n = GetParam();
  Rng rng(400 + n);
  std::vector<double> x(n);
  for (double& v : x) v = rng.uniform(-1, 1);
  const auto plan = FftPlan::get(n, FftPlan::Kind::kReal);
  FftScratch scratch;
  std::vector<Complex> bins(plan->real_bins());
  std::vector<double> back(n);
  plan->forward_real(x, bins, scratch);
  plan->inverse_real(bins, back, scratch);
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_NEAR(back[i], x[i], 1e-9) << "n=" << n << " i=" << i;
}

TEST_P(FftPlanRealSizes, PowerSpectrumMatchesNormOfBins) {
  const std::size_t n = GetParam();
  Rng rng(500 + n);
  std::vector<double> x(n);
  for (double& v : x) v = rng.uniform(-1, 1);
  const auto plan = FftPlan::get(n, FftPlan::Kind::kReal);
  FftScratch scratch;
  std::vector<Complex> bins(plan->real_bins());
  std::vector<double> psd(plan->real_bins());
  const double scale = 1.0 / static_cast<double>(n);
  plan->forward_real(x, bins, scratch);
  plan->power_spectrum(x, psd, scale, scratch);
  for (std::size_t k = 0; k < psd.size(); ++k)
    EXPECT_NEAR(psd[k], std::norm(bins[k]) * scale, 1e-10 * (1.0 + std::norm(bins[k])));
}

// Even (half-length complex path, incl. the 2k == h self-mirror bin), odd
// (full-transform fallback), prime, and the pipeline's own 512.
INSTANTIATE_TEST_SUITE_P(Sizes, FftPlanRealSizes,
                         ::testing::Values(2, 8, 12, 64, 512, 1, 9, 17, 45, 73));

TEST(FftPlanCacheTest, GetReturnsSharedInstancePerSizeAndKind) {
  const auto a = FftPlan::get(128, FftPlan::Kind::kComplex);
  const auto b = FftPlan::get(128, FftPlan::Kind::kComplex);
  const auto c = FftPlan::get(128, FftPlan::Kind::kReal);
  const auto d = FftPlan::get(256, FftPlan::Kind::kComplex);
  EXPECT_EQ(a.get(), b.get());
  EXPECT_NE(a.get(), c.get());
  EXPECT_NE(a.get(), d.get());
  EXPECT_EQ(a->size(), 128u);
  EXPECT_EQ(c->real_bins(), 65u);
}

TEST(FftPlanCacheTest, ForwardInplaceMatchesOutOfPlace) {
  const std::size_t n = 64;
  const auto x = random_complex(n, 999);
  const auto plan = FftPlan::get(n, FftPlan::Kind::kComplex);
  FftScratch scratch;
  std::vector<Complex> out(n);
  plan->forward(x, out, scratch);
  std::vector<Complex> inplace = x;
  plan->forward_inplace(inplace);
  for (std::size_t k = 0; k < n; ++k)
    EXPECT_NEAR(std::abs(inplace[k] - out[k]), 0.0, 1e-12);
}


// The pruned four-lane band PSD (BandPsdPlan) must reproduce four single
// full-transform calls bit for bit (the `dsp.psd.band` pair; the oracle
// suite sweeps window shapes and sizes): every lane is independent of its
// lane-mates, and the absorption stage packs four echoes of one recording
// into one group, zero lanes in the last.
TEST(PowerSpectrumBandX4Test, MatchesFourSingleCallsBitwise) {
  for (const std::size_t n : {8u, 64u, 512u}) {
    const auto plan = FftPlan::get(n, FftPlan::Kind::kReal);
    const std::size_t bins = plan->real_bins();
    Rng rng(2024 + n);
    for (const std::size_t len : {n, n / 2 + 1, std::size_t{3}}) {
      std::vector<std::vector<double>> in(4, std::vector<double>(n, 0.0));
      for (auto& lane : in)
        for (std::size_t i = 0; i < len; ++i) lane[i] = rng.uniform(-1, 1);
      for (const auto& [lo, hi] : {std::pair<std::size_t, std::size_t>{0, bins - 1},
                                  {0, 0},
                                  {bins - 1, bins - 1},
                                  {bins / 3, (2 * bins) / 3},
                                  {1, bins / 2}}) {
        FftScratch scratch;
        std::vector<std::vector<double>> single(4, std::vector<double>(bins));
        for (std::size_t l = 0; l < 4; ++l)
          plan->power_spectrum(in[l], single[l], 1.0 / static_cast<double>(n), scratch);
        const BandPsdPlan band(n, len, lo, hi);
        std::vector<double> batched(4 * band.bins(), -1.0);
        const double* ins[4] = {in[0].data(), in[1].data(), in[2].data(), in[3].data()};
        std::vector<double> work;
        band.execute_x4(ins, batched.data(), 1.0 / static_cast<double>(n), work);
        for (std::size_t l = 0; l < 4; ++l)
          for (std::size_t k = lo; k <= hi; ++k)
            EXPECT_EQ(batched[4 * (k - lo) + l], single[l][k])
                << "n=" << n << " len=" << len << " lane=" << l << " bin=" << k
                << " band=[" << lo << "," << hi << "]";
      }
    }
  }
}

}  // namespace
}  // namespace earsonar::dsp
