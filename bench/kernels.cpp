// Per-kernel microbenchmarks for the SIMD dispatch layer (src/dsp/simd.hpp)
// with roofline accounting: every benchmark reports GFLOP/s and GB/s from an
// analytic work model (bench/roofline.hpp) so BENCH_latency.json carries
// enough context to classify a regression as compute- or bandwidth-bound.
//
// Each kernel is measured through the *dispatched* entry point
// (simd::active(), and net::crc32 for the frame checksum), so
// EARSONAR_SIMD=scalar vs native quantifies the SIMD speedup per kernel on
// the same build. Two scalar rows without roofline counters close the file:
// the detector fit's Laplacian score and the MFCC's truncated DCT-II.
#include <benchmark/benchmark.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "roofline.hpp"
#include "common/rng.hpp"
#include "dsp/biquad.hpp"
#include "dsp/butterworth.hpp"
#include "dsp/dct.hpp"
#include "dsp/simd.hpp"
#include "ml/laplacian.hpp"
#include "net/frame.hpp"

using namespace earsonar;

namespace {

std::vector<double> test_signal(std::size_t n) {
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i)
    x[i] = std::sin(0.37 * static_cast<double>(i)) +
           0.25 * std::cos(1.91 * static_cast<double>(i));
  return x;
}

// Interleaved twiddles in FftPlan's layout (stage h at scalar offset 2h).
std::vector<double> twiddle_table(std::size_t n) {
  std::vector<double> w(2 * n, 0.0);
  for (std::size_t h = 1; h < n; h <<= 1) {
    for (std::size_t k = 0; k < h; ++k) {
      const double a = -3.14159265358979323846 * static_cast<double>(k) /
                       static_cast<double>(h);
      w[2 * (h + k)] = std::cos(a);
      w[2 * (h + k) + 1] = std::sin(a);
    }
  }
  return w;
}

// ---------------------------------------------------------- FFT butterflies

void BM_KernelButterfliesD(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::vector<double> tw = twiddle_table(n);
  std::vector<double> data = test_signal(2 * n);
  const auto& kernel = dsp::simd::active();
  for (auto _ : state) {
    kernel.butterflies_d(data.data(), tw.data(), n);
    benchmark::DoNotOptimize(data.data());
  }
  bench::set_roofline(state, bench::fft_flops(n), bench::fft_bytes(n, 16));
}
BENCHMARK(BM_KernelButterfliesD)->Arg(256)->Arg(2048);

// ------------------------------------------------------------- power bins

void BM_KernelPowerBins(benchmark::State& state) {
  // |z|^2 * scale per bin: 4 flops; 2 scalars read + 1 written.
  const auto m = static_cast<std::size_t>(state.range(0));
  const std::vector<double> bins = test_signal(2 * m);
  std::vector<double> out(m);
  const auto& kernel = dsp::simd::active();
  for (auto _ : state) {
    kernel.power_bins_d(bins.data(), out.data(), m, 0.125);
    benchmark::DoNotOptimize(out.data());
  }
  bench::set_roofline(state, 4.0 * static_cast<double>(m),
                      24.0 * static_cast<double>(m));
}
BENCHMARK(BM_KernelPowerBins)->Arg(257)->Arg(2049);

// ---------------------------------------------------------- window multiply

void BM_WindowMul(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  // Separate destination: an in-place repeat would decay the frame into
  // denormals across iterations and measure FPU assists, not the kernel.
  const std::vector<double> win = test_signal(n);
  const std::vector<double> frame = test_signal(n);
  std::vector<double> out(n);
  const auto& kernel = dsp::simd::active();
  for (auto _ : state) {
    kernel.mul_d(out.data(), frame.data(), win.data(), n);
    benchmark::DoNotOptimize(out.data());
  }
  bench::set_roofline(state, static_cast<double>(n), 24.0 * static_cast<double>(n));
}
BENCHMARK(BM_WindowMul)->Arg(512)->Arg(4096);

// ------------------------------------------------------------------ biquad

void BM_BiquadBlock(benchmark::State& state) {
  // The single-channel four-section band-pass (the streaming filter's
  // shape), through the kernel `earsonar_biquad_path` names.
  const auto n = static_cast<std::size_t>(state.range(0));
  dsp::BiquadCascade cascade =
      dsp::butterworth_bandpass(4, 14000.0, 21000.0, 48000.0);
  const std::vector<double> in = test_signal(n);
  for (auto _ : state) benchmark::DoNotOptimize(cascade.process(in));
  const double sections = static_cast<double>(cascade.section_count());
  bench::set_roofline(state, 9.0 * sections * static_cast<double>(n),
                      16.0 * sections * static_cast<double>(n));
}
BENCHMARK(BM_BiquadBlock)->Arg(4800)->Arg(48000);

// ------------------------------------------------------------ frame CRC-32

void BM_Crc32(benchmark::State& state) {
  // One 4,800-sample float64 chunk: the payload a client sends per frame.
  const std::vector<double> chunk = test_signal(4800);
  const std::span<const std::uint8_t> bytes(
      reinterpret_cast<const std::uint8_t*>(chunk.data()), chunk.size() * sizeof(double));
  for (auto _ : state) benchmark::DoNotOptimize(net::crc32(bytes));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes.size()));
}
BENCHMARK(BM_Crc32);

// ------------------------------------------------- detector fit and MFCC

void BM_LaplacianScores(benchmark::State& state) {
  // The fit's feature ranking at the enrollment cohort's shape: 448 rows of
  // 105 standard-normal features, k = 5 neighbours.
  Rng rng(448105);
  ml::Matrix data(448, std::vector<double>(105));
  for (std::vector<double>& row : data)
    for (double& v : row) v = rng.normal(0.0, 1.0);
  for (auto _ : state) benchmark::DoNotOptimize(ml::laplacian_scores(data));
}
BENCHMARK(BM_LaplacianScores)->Unit(benchmark::kMillisecond);

void BM_Dct2Truncated(benchmark::State& state) {
  // The MFCC's last step: 24 log mel energies to 13 coefficients.
  const std::vector<double> log_energies = test_signal(24);
  for (auto _ : state) benchmark::DoNotOptimize(dsp::dct2_truncated(log_energies, 13));
}
BENCHMARK(BM_Dct2Truncated);

}  // namespace

int main(int argc, char** argv) {
  // Effective dispatch context, so the JSON report says which kernel set the
  // numbers describe (native arch of this build/host + the level actually
  // selected via EARSONAR_SIMD).
  benchmark::AddCustomContext("earsonar_simd_arch", dsp::simd::native_arch());
  benchmark::AddCustomContext("earsonar_simd_level", dsp::simd::active().name);
  benchmark::AddCustomContext("earsonar_crc32_path",
                              net::crc32_path(dsp::simd::active_level()));
  benchmark::AddCustomContext(
      "earsonar_biquad_path",
      dsp::biquad_path(dsp::butterworth_bandpass(4, 14000.0, 21000.0, 48000.0)));
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
