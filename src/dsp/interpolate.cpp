#include "dsp/interpolate.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "dsp/butterworth.hpp"

namespace earsonar::dsp {

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

}  // namespace earsonar::dsp
