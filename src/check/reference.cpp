#include "check/reference.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "common/error.hpp"

namespace earsonar::check {

namespace {

constexpr double kPi = std::numbers::pi;

// Twiddle e^{sign * 2*pi*i * (k*n mod N) / N}. Reducing the index modulo N
// before the angle computation keeps the argument in [0, 2*pi), so the naive
// sums stay accurate enough to serve as the oracle even at n = 8192.
Complex unit_twiddle(std::size_t k, std::size_t n, std::size_t size, double sign) {
  const std::size_t reduced = (k * n) % size;
  const double angle = sign * 2.0 * kPi * static_cast<double>(reduced) /
                       static_cast<double>(size);
  return {std::cos(angle), std::sin(angle)};
}

}  // namespace

std::vector<Complex> dft_naive(std::span<const Complex> input) {
  require_nonempty("dft_naive input", input.size());
  const std::size_t n = input.size();
  std::vector<Complex> out(n);
  for (std::size_t k = 0; k < n; ++k) {
    Complex acc{0.0, 0.0};
    for (std::size_t i = 0; i < n; ++i) acc += input[i] * unit_twiddle(k, i, n, -1.0);
    out[k] = acc;
  }
  return out;
}

std::vector<Complex> idft_naive(std::span<const Complex> input) {
  require_nonempty("idft_naive input", input.size());
  const std::size_t n = input.size();
  std::vector<Complex> out(n);
  for (std::size_t k = 0; k < n; ++k) {
    Complex acc{0.0, 0.0};
    for (std::size_t i = 0; i < n; ++i) acc += input[i] * unit_twiddle(k, i, n, 1.0);
    out[k] = acc / static_cast<double>(n);
  }
  return out;
}

std::vector<Complex> rdft_naive(std::span<const double> input) {
  require_nonempty("rdft_naive input", input.size());
  const std::size_t n = input.size();
  std::vector<Complex> out(n / 2 + 1);
  for (std::size_t k = 0; k < out.size(); ++k) {
    Complex acc{0.0, 0.0};
    for (std::size_t i = 0; i < n; ++i) acc += input[i] * unit_twiddle(k, i, n, -1.0);
    out[k] = acc;
  }
  return out;
}

std::vector<double> power_spectrum_naive(std::span<const double> input) {
  const std::vector<Complex> bins = rdft_naive(input);
  std::vector<double> power(bins.size());
  for (std::size_t i = 0; i < bins.size(); ++i)
    power[i] = std::norm(bins[i]) / static_cast<double>(input.size());
  return power;
}

double dtft_magnitude_naive(std::span<const double> signal, double frequency_hz,
                            double sample_rate) {
  require_nonempty("dtft_magnitude_naive input", signal.size());
  require_positive("sample_rate", sample_rate);
  const double w = 2.0 * kPi * frequency_hz / sample_rate;
  double re = 0.0, im = 0.0;
  for (std::size_t n = 0; n < signal.size(); ++n) {
    const double angle = w * static_cast<double>(n);
    re += signal[n] * std::cos(angle);
    im -= signal[n] * std::sin(angle);
  }
  return std::hypot(re, im);
}

std::vector<double> convolve_naive(std::span<const double> a, std::span<const double> b) {
  require_nonempty("convolve_naive a", a.size());
  require_nonempty("convolve_naive b", b.size());
  std::vector<double> out(a.size() + b.size() - 1, 0.0);
  for (std::size_t k = 0; k < out.size(); ++k) {
    const std::size_t i_lo = k >= b.size() - 1 ? k - (b.size() - 1) : 0;
    const std::size_t i_hi = std::min(k, a.size() - 1);
    double acc = 0.0;
    for (std::size_t i = i_lo; i <= i_hi; ++i) acc += a[i] * b[k - i];
    out[k] = acc;
  }
  return out;
}

std::vector<double> cross_correlate_naive(std::span<const double> a,
                                          std::span<const double> b) {
  require_nonempty("cross_correlate_naive a", a.size());
  require_nonempty("cross_correlate_naive b", b.size());
  // r[m] = sum_i a[i] * b[i - (m - (|b|-1))]: convolution of a with reversed b.
  std::vector<double> reversed(b.rbegin(), b.rend());
  return convolve_naive(a, reversed);
}

std::vector<double> dct2_naive(std::span<const double> input) {
  require_nonempty("dct2_naive input", input.size());
  const std::size_t n = input.size();
  std::vector<double> out(n);
  for (std::size_t k = 0; k < n; ++k) {
    double acc = 0.0;
    for (std::size_t i = 0; i < n; ++i)
      acc += input[i] * std::cos(kPi * (2.0 * static_cast<double>(i) + 1.0) *
                                 static_cast<double>(k) / (2.0 * static_cast<double>(n)));
    const double scale =
        k == 0 ? std::sqrt(1.0 / static_cast<double>(n)) : std::sqrt(2.0 / static_cast<double>(n));
    out[k] = acc * scale;
  }
  return out;
}

double percentile_naive(std::span<const double> xs, double p) {
  require_nonempty("percentile_naive input", xs.size());
  require_in_range("percentile_naive p", p, 0.0, 100.0);
  std::vector<double> sorted(xs.begin(), xs.end());
  std::sort(sorted.begin(), sorted.end());
  if (sorted.size() == 1) return sorted.front();
  const double pos = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

std::vector<double> biquad_cascade_df1_naive(const std::vector<dsp::Biquad>& sections,
                                             std::span<const double> input) {
  std::vector<double> x(input.begin(), input.end());
  for (const dsp::Biquad& s : sections) {
    std::vector<double> y(x.size());
    double x1 = 0.0, x2 = 0.0, y1 = 0.0, y2 = 0.0;
    for (std::size_t n = 0; n < x.size(); ++n) {
      y[n] = s.b0 * x[n] + s.b1 * x1 + s.b2 * x2 - s.a1 * y1 - s.a2 * y2;
      x2 = x1;
      x1 = x[n];
      y2 = y1;
      y1 = y[n];
    }
    x = std::move(y);
  }
  return x;
}

std::vector<double> band_mfcc_naive(const dsp::Spectrum& spectrum,
                                    std::size_t filter_count,
                                    std::size_t coefficient_count) {
  require_nonempty("band_mfcc_naive spectrum", spectrum.size());
  require(coefficient_count >= 1 && coefficient_count <= filter_count,
          "band_mfcc_naive: coefficient_count must be in [1, filter_count]");
  const auto to_mel = [](double hz) { return 2595.0 * std::log10(1.0 + hz / 700.0); };
  const auto to_hz = [](double mel) {
    return 700.0 * (std::pow(10.0, mel / 2595.0) - 1.0);
  };

  // 1. filter_count + 2 edges, evenly spaced in mel across the band grid.
  const double mel_lo = to_mel(spectrum.frequency_hz.front());
  const double mel_hi = to_mel(spectrum.frequency_hz.back());
  std::vector<double> edges(filter_count + 2);
  for (std::size_t i = 0; i < edges.size(); ++i)
    edges[i] = to_hz(mel_lo + (mel_hi - mel_lo) * static_cast<double>(i) /
                                  static_cast<double>(edges.size() - 1));

  // 2. literal triangles at the grid points, floored log of each energy.
  std::vector<double> log_energies(filter_count);
  for (std::size_t f = 0; f < filter_count; ++f) {
    const double left = edges[f], center = edges[f + 1], right = edges[f + 2];
    double acc = 0.0;
    for (std::size_t b = 0; b < spectrum.size(); ++b) {
      const double freq = spectrum.frequency_hz[b];
      double w = 0.0;
      if (freq > left && freq < center) w = (freq - left) / (center - left);
      else if (freq >= center && freq < right) w = (right - freq) / (right - center);
      acc += w * spectrum.psd[b];
    }
    log_energies[f] = std::log(std::max(acc, 1e-12));
  }

  // 3. naive DCT-II, leading coefficients only.
  std::vector<double> mfcc = dct2_naive(log_energies);
  mfcc.resize(coefficient_count);
  return mfcc;
}

std::vector<double> welch_psd_naive(std::span<const double> signal, double sample_rate,
                                    std::size_t segment) {
  require_nonempty("welch_psd_naive input", signal.size());
  require(segment >= 2 && segment <= signal.size(),
          "welch_psd_naive: segment must be in [2, signal length]");
  require_positive("sample_rate", sample_rate);

  std::vector<double> window(segment);
  for (std::size_t i = 0; i < segment; ++i)
    window[i] = 0.5 - 0.5 * std::cos(2.0 * kPi * static_cast<double>(i) /
                                     static_cast<double>(segment - 1));
  double window_energy = 0.0;
  for (double w : window) window_energy += w * w;
  const double norm = 1.0 / (sample_rate * window_energy);

  std::vector<double> acc(segment / 2 + 1, 0.0);
  std::size_t count = 0;
  for (std::size_t start = 0; start + segment <= signal.size(); start += segment / 2) {
    std::vector<double> xw(segment);
    for (std::size_t i = 0; i < segment; ++i) xw[i] = signal[start + i] * window[i];
    const std::vector<Complex> bins = rdft_naive(xw);
    for (std::size_t i = 0; i < acc.size(); ++i) {
      const double p = std::norm(bins[i]) * norm;
      // One-sided spectrum: double everything except DC and Nyquist.
      const bool edge = (i == 0) || (segment % 2 == 0 && i == acc.size() - 1);
      acc[i] += edge ? p : 2.0 * p;
    }
    ++count;
  }
  for (double& v : acc) v /= static_cast<double>(count);
  return acc;
}

}  // namespace earsonar::check
