// SIMD dispatch-parity tests (ctest label `simd`).
//
// The dispatch contract (src/dsp/simd.hpp) is that kernel_set(kScalar) — the
// Pack emulation at the native lane geometry — produces BIT-IDENTICAL output
// to kernel_set(kNative) for every kernel, because both instantiate the same
// templated operation sequence. These tests
// exercise every KernelSet entry point on both levels and compare bitwise
// (the `dsp.simd.dispatch` oracle pair, tolerance {0, 0}).
//
// tests/CMakeLists.txt registers this binary twice — once with
// EARSONAR_SIMD=scalar and once with =native — so the env-dispatched
// `active()` path runs under both levels in CI.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <numbers>
#include <span>
#include <string>
#include <vector>

#include "check/tolerance.hpp"
#include "common/rng.hpp"
#include "dsp/band_psd.hpp"
#include "dsp/biquad.hpp"
#include "dsp/butterworth.hpp"
#include "dsp/fft_plan.hpp"
#include "dsp/simd.hpp"

namespace earsonar {
namespace {

using check::CompareResult;
using dsp::simd::KernelSet;
using dsp::simd::Level;

constexpr std::uint64_t kSeed = 0x51D0'15AAULL;

std::vector<double> random_vector(std::size_t n, std::uint64_t seed,
                                  double lo = -1.0, double hi = 1.0) {
  Rng rng(seed);
  std::vector<double> v(n);
  for (double& x : v) x = rng.uniform(lo, hi);
  return v;
}

// Builds the interleaved radix-2 twiddle table in FftPlan's layout: the
// stage with half-length h keeps its h complex twiddles exp(-i*pi*k/h) at
// scalar offset 2h. Total 2n scalars (entry 0..1 unused).
std::vector<double> twiddle_table(std::size_t n) {
  std::vector<double> w(2 * n, 0.0);
  for (std::size_t h = 1; h < n; h <<= 1) {
    const double angle = -std::numbers::pi / static_cast<double>(h);
    for (std::size_t k = 0; k < h; ++k) {
      const double a = angle * static_cast<double>(k);
      w[2 * (h + k)] = std::cos(a);
      w[2 * (h + k) + 1] = std::sin(a);
    }
  }
  return w;
}

void expect_bitwise_equal(std::span<const double> got, std::span<const double> want,
                          const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i)
    ASSERT_EQ(got[i], want[i]) << what << " lane " << i
                               << " differs between dispatch levels";
}

// ------------------------------------------------ per-kernel dispatch parity

TEST(SimdDispatchTest, LevelsResolveAndReportLanes) {
  const KernelSet& native = dsp::simd::kernel_set(Level::kNative);
  const KernelSet& scalar = dsp::simd::kernel_set(Level::kScalar);
  EXPECT_GE(native.lanes_d, 2u);
  EXPECT_EQ(scalar.lanes_d, native.lanes_d)
      << "scalar twin must match the native lane geometry for bit parity";
  EXPECT_STREQ(dsp::simd::native_arch(), native.name);
}

TEST(SimdDispatchTest, ButterfliesBitIdenticalAcrossLevels) {
  const check::Tolerance tol = check::pair_policy("dsp.simd.dispatch").tol;
  for (std::size_t n : {1ul, 2ul, 4ul, 8ul, 64ul, 512ul, 4096ul}) {
    const std::vector<double> input = random_vector(2 * n, kSeed + n);
    const std::vector<double> wd = twiddle_table(n);
    std::vector<double> a = input, b = input;
    dsp::simd::kernel_set(Level::kNative).butterflies_d(a.data(), wd.data(), n);
    dsp::simd::kernel_set(Level::kScalar).butterflies_d(b.data(), wd.data(), n);
    const CompareResult r = check::compare_vectors(a, b, tol);
    EXPECT_TRUE(r.ok) << "n=" << n << ": "
                      << check::describe_failure("dsp.simd.dispatch", r);
  }
}

// The butterfly-runs kernel: a full run list (every butterfly of the
// half-length transform) and pruned lists from dsp::BandPsdPlan, native
// against scalar bitwise over random lane-major data. A full list must also
// equal butterflies_d of each lane alone.
TEST(SimdDispatchTest, ButterflyRunsBitIdenticalAcrossLevels) {
  struct Shape {
    std::size_t n, window, lo, hi;
  };
  for (const Shape& shape : {Shape{8, 8, 0, 4}, Shape{64, 64, 0, 32},
                             Shape{512, 512, 0, 256}, Shape{512, 73, 170, 214},
                             Shape{128, 41, 42, 54}, Shape{2048, 65, 0, 0},
                             Shape{64, 41, 32, 32}}) {
    const dsp::BandPsdPlan plan(shape.n, shape.window, shape.lo, shape.hi);
    const std::vector<dsp::simd::ButterflyRun>& runs = plan.runs();
    const std::size_t h = shape.n / 2;
    const bool full = shape.window == shape.n;
    const std::vector<double> input = random_vector(8 * h, kSeed + shape.n + shape.window);
    const std::vector<double> wd = twiddle_table(h);
    std::vector<double> a = input, b = input;
    dsp::simd::kernel_set(Level::kNative)
        .butterfly_runs_x4_d(a.data(), wd.data(), runs.data(), runs.size());
    dsp::simd::kernel_set(Level::kScalar)
        .butterfly_runs_x4_d(b.data(), wd.data(), runs.data(), runs.size());
    SCOPED_TRACE("n=" + std::to_string(shape.n) + " window=" + std::to_string(shape.window));
    expect_bitwise_equal(a, b, "butterfly_runs_x4_d");
    EXPECT_EQ(plan.butterflies() == (h / 2) * static_cast<std::size_t>(std::log2(h)), full);
    if (!full) continue;
    for (std::size_t l = 0; l < 4; ++l) {
      std::vector<double> single(2 * h), got(2 * h);
      for (std::size_t k = 0; k < h; ++k) {
        single[2 * k] = input[8 * k + l];
        single[2 * k + 1] = input[8 * k + 4 + l];
        got[2 * k] = a[8 * k + l];
        got[2 * k + 1] = a[8 * k + 4 + l];
      }
      dsp::simd::active().butterflies_d(single.data(), wd.data(), h);
      expect_bitwise_equal(got, single, "full runs vs butterflies_d");
    }
  }
}

TEST(SimdDispatchTest, PowerBinsBitIdenticalAcrossLevels) {
  for (std::size_t m : {1ul, 3ul, 8ul, 257ul}) {
    const std::vector<double> bins = random_vector(2 * m, kSeed + 11 * m);
    std::vector<double> a(m), b(m);
    dsp::simd::kernel_set(Level::kNative)
        .power_bins_d(bins.data(), a.data(), m, 0.125);
    dsp::simd::kernel_set(Level::kScalar)
        .power_bins_d(bins.data(), b.data(), m, 0.125);
    expect_bitwise_equal(a, b, "power_bins_d");
  }
}

TEST(SimdDispatchTest, MulAndDotBitIdenticalAcrossLevels) {
  for (std::size_t n : {1ul, 7ul, 16ul, 1023ul}) {
    const std::vector<double> x = random_vector(n, kSeed + 3 * n);
    const std::vector<double> y = random_vector(n, kSeed + 5 * n);
    std::vector<double> a(n), b(n);
    dsp::simd::kernel_set(Level::kNative).mul_d(a.data(), x.data(), y.data(), n);
    dsp::simd::kernel_set(Level::kScalar).mul_d(b.data(), x.data(), y.data(), n);
    expect_bitwise_equal(a, b, "mul_d");
  }
}

// The four-section wavefront (a four-lane set's biquad_wavefront4_d) against
// the other level and against the sample-major cascade
// (BiquadCascade::process_sample), bitwise: forward and back to front, fed in
// chunks with the delay lines carried across every split.
TEST(SimdDispatchTest, BiquadWavefrontBitIdenticalAcrossLevelsAndSampleMajor) {
  const KernelSet& native = dsp::simd::kernel_set(Level::kNative);
  const KernelSet& scalar = dsp::simd::kernel_set(Level::kScalar);
  if (native.lanes_d != 4) {
    EXPECT_EQ(native.biquad_wavefront4_d, nullptr);
    EXPECT_EQ(scalar.biquad_wavefront4_d, nullptr);
    return;
  }
  ASSERT_NE(native.biquad_wavefront4_d, nullptr);
  ASSERT_NE(scalar.biquad_wavefront4_d, nullptr);
  const dsp::BiquadCascade design =
      dsp::butterworth_bandpass(4, 15000.0, 21000.0, 48000.0);
  ASSERT_EQ(design.section_count(), 4u);
  double coef[20];
  for (std::size_t s = 0; s < 4; ++s) {
    const dsp::Biquad& b = design.sections()[s];
    coef[s] = b.b0;
    coef[4 + s] = b.b1;
    coef[8 + s] = b.b2;
    coef[12 + s] = b.a1;
    coef[16 + s] = b.a2;
  }
  const std::vector<double> input = random_vector(9607, kSeed + 4);
  const std::size_t n = input.size();
  for (bool reverse : {false, true}) {
    dsp::BiquadCascade reference(design.sections());
    std::vector<double> want = input;
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t j = reverse ? n - 1 - i : i;
      want[j] = reference.process_sample(want[j]);
    }
    for (std::size_t chunk : {1ul, 2ul, 3ul, 4ul, 5ul, 480ul, 4800ul}) {
      for (const KernelSet* set : {&native, &scalar}) {
        std::vector<double> got = input;
        double z1[4] = {}, z2[4] = {};
        for (std::size_t pos = 0; pos < n; pos += chunk) {
          const std::size_t len = std::min(chunk, n - pos);
          double* first = reverse ? got.data() + (n - 1 - pos) : got.data() + pos;
          set->biquad_wavefront4_d(first, reverse ? -1 : 1, len, coef, z1, z2);
        }
        SCOPED_TRACE(std::string(set->name) + (reverse ? " reverse" : " forward") +
                     " chunk=" + std::to_string(chunk));
        expect_bitwise_equal(got, want, "biquad_wavefront4_d samples");
        for (std::size_t s = 0; s < 4; ++s) {
          ASSERT_EQ(z1[s], reference.state()[s].z1) << "section " << s;
          ASSERT_EQ(z2[s], reference.state()[s].z2) << "section " << s;
        }
      }
    }
  }
}

}  // namespace
}  // namespace earsonar
