#include "dsp/interpolate.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "dsp/butterworth.hpp"

namespace earsonar::dsp {

std::vector<double> interp_linear(std::span<const double> x, std::span<const double> y,
                                  std::span<const double> queries) {
  require(x.size() == y.size(), "interp_linear: x/y size mismatch");
  require(x.size() >= 2, "interp_linear: need >= 2 knots");
  for (std::size_t i = 1; i < x.size(); ++i)
    require(x[i] > x[i - 1], "interp_linear: x must be strictly ascending");

  std::vector<double> out(queries.size());
  for (std::size_t q = 0; q < queries.size(); ++q) {
    const double f = queries[q];
    if (f <= x.front()) {
      out[q] = y.front();
    } else if (f >= x.back()) {
      out[q] = y.back();
    } else {
      const auto it = std::lower_bound(x.begin(), x.end(), f);
      const std::size_t hi = static_cast<std::size_t>(it - x.begin());
      const std::size_t lo = hi - 1;
      const double t = (f - x[lo]) / (x[hi] - x[lo]);
      out[q] = y[lo] * (1.0 - t) + y[hi] * t;
    }
  }
  return out;
}

double sample_fractional(std::span<const double> signal, double index) {
  if (signal.empty()) return 0.0;
  if (index < 0.0 || index > static_cast<double>(signal.size() - 1)) return 0.0;
  const auto at = [&](std::ptrdiff_t i) -> double {
    if (i < 0 || i >= static_cast<std::ptrdiff_t>(signal.size())) return 0.0;
    return signal[static_cast<std::size_t>(i)];
  };
  const std::ptrdiff_t i1 = static_cast<std::ptrdiff_t>(std::floor(index));
  const double t = index - static_cast<double>(i1);
  const double p0 = at(i1 - 1), p1 = at(i1), p2 = at(i1 + 1), p3 = at(i1 + 2);
  // Catmull-Rom.
  return 0.5 * ((2.0 * p1) + (-p0 + p2) * t + (2.0 * p0 - 5.0 * p1 + 4.0 * p2 - p3) * t * t +
                (-p0 + 3.0 * p1 - 3.0 * p2 + p3) * t * t * t);
}

double sample_fractional_sinc(std::span<const double> signal, double index) {
  if (signal.empty()) return 0.0;
  if (index < 0.0 || index > static_cast<double>(signal.size() - 1)) return 0.0;
  constexpr int kHalfTaps = 8;
  constexpr double kPi = 3.14159265358979323846;
  const auto at = [&](std::ptrdiff_t i) -> double {
    if (i < 0 || i >= static_cast<std::ptrdiff_t>(signal.size())) return 0.0;
    return signal[static_cast<std::size_t>(i)];
  };
  const std::ptrdiff_t base = static_cast<std::ptrdiff_t>(std::floor(index));
  const double frac = index - static_cast<double>(base);
  if (frac < 1e-12) return at(base);  // exact sample, skip the kernel

  double acc = 0.0;
  for (int k = -kHalfTaps + 1; k <= kHalfTaps; ++k) {
    const double t = frac - static_cast<double>(k);  // distance to tap k
    const double sinc = std::sin(kPi * t) / (kPi * t);
    // Hann window over the kernel span [-kHalfTaps, kHalfTaps].
    const double win = 0.5 + 0.5 * std::cos(kPi * t / kHalfTaps);
    acc += at(base + k) * sinc * win;
  }
  return acc;
}

std::vector<double> resample_to_rate(std::span<const double> signal, double source_rate,
                                     double target_rate) {
  require_nonempty("resample_to_rate input", signal.size());
  require_positive("source_rate", source_rate);
  require_positive("target_rate", target_rate);
  if (source_rate == target_rate)
    return std::vector<double>(signal.begin(), signal.end());

  // Downsampling folds content above the new Nyquist back into band;
  // low-pass first.
  std::vector<double> prepared;
  if (target_rate < source_rate) {
    BiquadCascade aa = butterworth_lowpass(6, 0.45 * target_rate, source_rate);
    prepared = aa.filtfilt(signal);
  } else {
    prepared.assign(signal.begin(), signal.end());
  }

  const double ratio = source_rate / target_rate;
  const std::size_t out_len = static_cast<std::size_t>(
      std::llround(static_cast<double>(signal.size()) / ratio));
  std::vector<double> out(std::max<std::size_t>(out_len, 1));
  for (std::size_t i = 0; i < out.size(); ++i)
    out[i] = sample_fractional_sinc(prepared, static_cast<double>(i) * ratio);
  return out;
}

std::vector<double> fractional_delay(std::span<const double> signal, double delay_samples) {
  require(delay_samples >= 0.0, "fractional_delay: delay must be >= 0");
  std::vector<double> out(signal.size(), 0.0);
  for (std::size_t i = 0; i < signal.size(); ++i) {
    const double src = static_cast<double>(i) - delay_samples;
    if (src >= 0.0) out[i] = sample_fractional(signal, src);
  }
  return out;
}

}  // namespace earsonar::dsp
