#include "dsp/convolution.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "dsp/fft.hpp"
#include "dsp/fft_plan.hpp"

namespace earsonar::dsp {

namespace {
// Below this output size the direct algorithm beats FFT setup costs.
constexpr std::size_t kDirectThreshold = 4096;

bool prefer_direct(std::size_t a, std::size_t b) {
  return a * b <= kDirectThreshold * 8 && std::min(a, b) <= 64;
}

// Per-thread buffers for the FFT paths: the segmenter auto-convolves one
// event window per chirp (hundreds per recording), so steady state must not
// allocate beyond the returned vector.
struct ConvScratch {
  FftScratch fft;
  std::vector<double> padded;
  std::vector<Complex> fa;
  std::vector<Complex> fb;
  std::vector<double> time;
};

ConvScratch& conv_scratch() {
  thread_local ConvScratch scratch;
  return scratch;
}

}  // namespace

std::vector<double> convolve(std::span<const double> a, std::span<const double> b) {
  require_nonempty("convolve a", a.size());
  require_nonempty("convolve b", b.size());
  if (prefer_direct(a.size(), b.size())) return convolve_direct(a, b);
  return convolve_fft(a, b);
}

std::vector<double> convolve_direct(std::span<const double> a, std::span<const double> b) {
  require_nonempty("convolve a", a.size());
  require_nonempty("convolve b", b.size());
  std::vector<double> out(a.size() + b.size() - 1, 0.0);
  for (std::size_t i = 0; i < a.size(); ++i)
    for (std::size_t j = 0; j < b.size(); ++j) out[i + j] += a[i] * b[j];
  return out;
}

std::vector<double> convolve_fft(std::span<const double> a, std::span<const double> b) {
  require_nonempty("convolve a", a.size());
  require_nonempty("convolve b", b.size());
  const std::size_t out_len = a.size() + b.size() - 1;
  const std::size_t n = next_power_of_two(out_len);
  const auto plan = FftPlan::get(n, FftPlan::Kind::kReal);
  ConvScratch& s = conv_scratch();
  const std::size_t bins = plan->real_bins();

  // Real inputs: two half-length forward transforms and one inverse replace
  // the former three full-length complex transforms.
  s.padded.assign(n, 0.0);
  std::copy(a.begin(), a.end(), s.padded.begin());
  s.fa.resize(bins);
  plan->forward_real(s.padded, s.fa, s.fft);
  s.padded.assign(n, 0.0);
  std::copy(b.begin(), b.end(), s.padded.begin());
  s.fb.resize(bins);
  plan->forward_real(s.padded, s.fb, s.fft);

  for (std::size_t i = 0; i < bins; ++i) s.fa[i] *= s.fb[i];
  s.time.resize(n);
  plan->inverse_real(s.fa, s.time, s.fft);
  return std::vector<double>(s.time.begin(),
                             s.time.begin() + static_cast<std::ptrdiff_t>(out_len));
}

std::vector<double> autoconvolve(std::span<const double> x) {
  require_nonempty("autoconvolve input", x.size());
  if (prefer_direct(x.size(), x.size())) return convolve_direct(x, x);
  // Same as convolve_fft(x, x), minus the second forward transform: both
  // operands are the identical padded buffer, so FB would come out bit-equal
  // to FA and FA[i] *= FA[i] reproduces the general path's product exactly.
  // The segmenter auto-convolves one event window per chirp, making this the
  // hottest convolution call in the pipeline.
  const std::size_t out_len = 2 * x.size() - 1;
  const std::size_t n = next_power_of_two(out_len);
  const auto plan = FftPlan::get(n, FftPlan::Kind::kReal);
  ConvScratch& s = conv_scratch();
  const std::size_t bins = plan->real_bins();

  s.padded.assign(n, 0.0);
  std::copy(x.begin(), x.end(), s.padded.begin());
  s.fa.resize(bins);
  plan->forward_real(s.padded, s.fa, s.fft);
  for (std::size_t i = 0; i < bins; ++i) s.fa[i] *= s.fa[i];
  s.time.resize(n);
  plan->inverse_real(s.fa, s.time, s.fft);
  return std::vector<double>(s.time.begin(),
                             s.time.begin() + static_cast<std::ptrdiff_t>(out_len));
}

std::vector<double> autoconvolve_range(std::span<const double> x, std::size_t first,
                                       std::size_t last) {
  require_nonempty("autoconvolve input", x.size());
  const std::size_t n = x.size();
  require(first <= last && last <= 2 * n - 1, "autoconvolve_range: lags outside [0, 2N-1)");
  if (!prefer_direct(n, n)) {
    const std::vector<double> full = autoconvolve(x);
    return std::vector<double>(full.begin() + static_cast<std::ptrdiff_t>(first),
                               full.begin() + static_cast<std::ptrdiff_t>(last));
  }
  // convolve_direct adds x[i] * x[m - i] into lag m for i ascending from a
  // 0.0 start; gathering the same terms in the same order is bit-identical.
  std::vector<double> out(last - first);
  for (std::size_t m = first; m < last; ++m) {
    double acc = 0.0;
    for (std::size_t i = m < n ? 0 : m - n + 1; i <= std::min(m, n - 1); ++i)
      acc += x[i] * x[m - i];
    out[m - first] = acc;
  }
  return out;
}

std::vector<double> cross_correlate(std::span<const double> a, std::span<const double> b) {
  require_nonempty("cross_correlate a", a.size());
  require_nonempty("cross_correlate b", b.size());
  const std::size_t out_len = a.size() + b.size() - 1;

  if (prefer_direct(a.size(), b.size())) {
    // Direct path with reversed indexing — no reversed copy of b.
    std::vector<double> out(out_len, 0.0);
    const std::size_t last = b.size() - 1;
    for (std::size_t i = 0; i < a.size(); ++i)
      for (std::size_t j = 0; j < b.size(); ++j) out[i + last - j] += a[i] * b[j];
    return out;
  }

  // FFT path: the linear correlation is the circular correlation
  // c = irfft(FA . conj(FB)) read out with a rotated index, so neither a
  // reversed copy of b nor a per-bin phase ramp is needed.
  const std::size_t n = next_power_of_two(out_len);
  const auto plan = FftPlan::get(n, FftPlan::Kind::kReal);
  ConvScratch& s = conv_scratch();
  const std::size_t bins = plan->real_bins();

  s.padded.assign(n, 0.0);
  std::copy(a.begin(), a.end(), s.padded.begin());
  s.fa.resize(bins);
  plan->forward_real(s.padded, s.fa, s.fft);
  s.padded.assign(n, 0.0);
  std::copy(b.begin(), b.end(), s.padded.begin());
  s.fb.resize(bins);
  plan->forward_real(s.padded, s.fb, s.fft);

  for (std::size_t i = 0; i < bins; ++i) s.fa[i] *= std::conj(s.fb[i]);
  s.time.resize(n);
  plan->inverse_real(s.fa, s.time, s.fft);

  std::vector<double> out(out_len);
  const std::size_t shift = b.size() - 1;  // out[m] = c[(m - (|b|-1)) mod n]
  for (std::size_t m = 0; m < out_len; ++m)
    out[m] = s.time[(m + n - shift) % n];
  return out;
}

}  // namespace earsonar::dsp
