// Convolution / correlation tests, including the auto-convolution properties
// the parity echo segmenter relies on.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "dsp/convolution.hpp"

namespace earsonar::dsp {
namespace {

TEST(ConvolveTest, KnownSmallExample) {
  const std::vector<double> a{1, 2, 3};
  const std::vector<double> b{0, 1, 0.5};
  const auto y = convolve_direct(a, b);
  const std::vector<double> expected{0, 1, 2.5, 4, 1.5};
  ASSERT_EQ(y.size(), expected.size());
  for (std::size_t i = 0; i < y.size(); ++i) EXPECT_NEAR(y[i], expected[i], 1e-12);
}

TEST(ConvolveTest, DeltaIsIdentity) {
  const std::vector<double> x{3, -1, 4, 1, -5};
  const std::vector<double> delta{1};
  EXPECT_EQ(convolve(x, delta), x);
}

TEST(ConvolveTest, OutputLength) {
  const std::vector<double> a(7, 1.0), b(5, 1.0);
  EXPECT_EQ(convolve(a, b).size(), 11u);
}

TEST(ConvolveTest, Commutative) {
  Rng rng(3);
  std::vector<double> a(17), b(9);
  for (double& v : a) v = rng.uniform(-1, 1);
  for (double& v : b) v = rng.uniform(-1, 1);
  const auto ab = convolve_direct(a, b);
  const auto ba = convolve_direct(b, a);
  for (std::size_t i = 0; i < ab.size(); ++i) EXPECT_NEAR(ab[i], ba[i], 1e-12);
}

class ConvolveEquivalence : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(ConvolveEquivalence, FftMatchesDirect) {
  const auto [na, nb] = GetParam();
  Rng rng(100 + na + nb);
  std::vector<double> a(na), b(nb);
  for (double& v : a) v = rng.uniform(-1, 1);
  for (double& v : b) v = rng.uniform(-1, 1);
  const auto direct = convolve_direct(a, b);
  const auto fast = convolve_fft(a, b);
  ASSERT_EQ(direct.size(), fast.size());
  for (std::size_t i = 0; i < direct.size(); ++i)
    EXPECT_NEAR(direct[i], fast[i], 1e-8);
}

INSTANTIATE_TEST_SUITE_P(Sizes, ConvolveEquivalence,
                         ::testing::Values(std::pair{1, 1}, std::pair{2, 3},
                                           std::pair{16, 16}, std::pair{100, 7},
                                           std::pair{64, 129}, std::pair{255, 255},
                                           std::pair{1000, 24}));

TEST(AutoconvolveTest, LengthIsTwoNMinusOne) {
  const std::vector<double> x(10, 1.0);
  EXPECT_EQ(autoconvolve(x).size(), 19u);
}

TEST(AutoconvolveTest, PeakAtTwiceSymmetryCenter) {
  // An even-symmetric pulse centered at index c makes |(x*x)| peak at 2c.
  std::vector<double> x(33, 0.0);
  const std::size_t c = 16;
  for (int k = -4; k <= 4; ++k)
    x[c + k] = std::exp(-0.3 * k * k);  // symmetric bump
  const auto ac = autoconvolve(x);
  std::vector<double> mag(ac.size());
  for (std::size_t i = 0; i < ac.size(); ++i) mag[i] = std::abs(ac[i]);
  EXPECT_EQ(argmax(mag), 2 * c);
}

TEST(AutoconvolveTest, OddSymmetricPulseAlsoPeaksAtCenter) {
  std::vector<double> x(41, 0.0);
  const std::size_t c = 20;
  for (int k = 1; k <= 5; ++k) {
    x[c + k] = 1.0 / k;
    x[c - k] = -1.0 / k;  // odd symmetry about c
  }
  const auto ac = autoconvolve(x);
  std::vector<double> mag(ac.size());
  for (std::size_t i = 0; i < ac.size(); ++i) mag[i] = std::abs(ac[i]);
  EXPECT_EQ(argmax(mag), 2 * c);
}

// autoconvolve_range must return exactly the slice of autoconvolve: the
// direct regime (N <= 64) re-gathers each lag in the direct sum's order, the
// FFT regime slices the transform's result. Sliding 13-lag windows (the
// segmenter's echo window is about that wide), windows at both edges, the
// full range and empty windows, for every length from 1 to 130.
TEST(AutoconvolveTest, RangeEqualsSliceBitwise) {
  Rng rng(17);
  for (std::size_t n = 1; n <= 130; ++n) {
    std::vector<double> x(n);
    for (double& v : x) v = rng.uniform(-1, 1);
    const std::vector<double> full = autoconvolve(x);
    const std::size_t lags = full.size();
    const auto check = [&](std::size_t first, std::size_t last) {
      const std::vector<double> got = autoconvolve_range(x, first, last);
      ASSERT_EQ(got.size(), last - first) << "n=" << n;
      for (std::size_t m = first; m < last; ++m)
        ASSERT_EQ(std::memcmp(&got[m - first], &full[m], sizeof(double)), 0)
            << "n=" << n << " lag " << m << " of window [" << first << ", " << last << ")";
    };
    for (std::size_t first = 0; first < lags; ++first)
      check(first, std::min(first + 13, lags));
    for (std::size_t k : {1UL, 2UL, 13UL}) {
      check(0, std::min(k, lags));
      check(lags - std::min(k, lags), lags);
    }
    check(0, lags);
    for (std::size_t at : {0UL, lags / 2, lags}) check(at, at);
  }
  const std::vector<double> x(8, 1.0);
  EXPECT_THROW((void)autoconvolve_range(x, 3, 2), std::invalid_argument);
  EXPECT_THROW((void)autoconvolve_range(x, 0, 16), std::invalid_argument);
}

TEST(CrossCorrelateTest, FindsKnownLag) {
  // b is a delayed by 5 samples: correlation peak lag must equal 5.
  Rng rng(7);
  std::vector<double> a(64);
  for (double& v : a) v = rng.uniform(-1, 1);
  std::vector<double> b(64, 0.0);
  for (std::size_t i = 0; i + 5 < 64; ++i) b[i + 5] = a[i];
  const auto r = cross_correlate(b, a);
  std::vector<double> mag(r.size());
  for (std::size_t i = 0; i < r.size(); ++i) mag[i] = std::abs(r[i]);
  const std::size_t peak = argmax(mag);
  const std::ptrdiff_t lag = static_cast<std::ptrdiff_t>(peak) -
                             static_cast<std::ptrdiff_t>(a.size() - 1);
  EXPECT_EQ(lag, 5);
}

TEST(ConvolveTest, EmptyInputThrows) {
  const std::vector<double> x{1, 2};
  const std::vector<double> empty;
  EXPECT_THROW(convolve(x, empty), std::invalid_argument);
  EXPECT_THROW(convolve(empty, x), std::invalid_argument);
}

}  // namespace
}  // namespace earsonar::dsp
