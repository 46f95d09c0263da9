#include "dsp/fir.hpp"

#include <cmath>
#include <complex>
#include <numbers>

#include "common/error.hpp"
#include "dsp/convolution.hpp"
#include "dsp/fft.hpp"
#include "dsp/window.hpp"

namespace earsonar::dsp {

namespace {
constexpr double kPi = std::numbers::pi;

void check_taps(std::size_t taps) {
  require(taps >= 3 && taps % 2 == 1, "FIR taps must be odd and >= 3");
}
}  // namespace

std::vector<double> fir_from_magnitude(std::span<const double> frequencies_hz,
                                       std::span<const double> magnitudes,
                                       std::size_t taps, double sample_rate) {
  check_taps(taps);
  require_positive("sample_rate", sample_rate);
  require(frequencies_hz.size() == magnitudes.size() && !frequencies_hz.empty(),
          "fir_from_magnitude: need matching non-empty frequency/magnitude arrays");
  for (std::size_t i = 1; i < frequencies_hz.size(); ++i)
    require(frequencies_hz[i] > frequencies_hz[i - 1],
            "fir_from_magnitude: frequencies must be strictly ascending");
  require(frequencies_hz.front() >= 0.0 && frequencies_hz.back() <= sample_rate / 2.0,
          "fir_from_magnitude: frequencies must lie in [0, Nyquist]");
  for (double m : magnitudes)
    require(m >= 0.0, "fir_from_magnitude: magnitudes must be >= 0");

  // Piecewise-linear interpolation of the target curve, flat outside the knots.
  auto target = [&](double f) {
    if (f <= frequencies_hz.front()) return magnitudes.front();
    if (f >= frequencies_hz.back()) return magnitudes.back();
    std::size_t hi = 1;
    while (frequencies_hz[hi] < f) ++hi;
    const double f0 = frequencies_hz[hi - 1], f1 = frequencies_hz[hi];
    const double m0 = magnitudes[hi - 1], m1 = magnitudes[hi];
    const double t = (f - f0) / (f1 - f0);
    return m0 * (1.0 - t) + m1 * t;
  };

  // Frequency sampling with a linear-phase (pure delay) target, then an
  // inverse DFT evaluated directly (taps is small).
  const std::size_t n = taps;
  const double mid = static_cast<double>(n - 1) / 2.0;
  std::vector<std::complex<double>> spec(n);
  for (std::size_t k = 0; k < n; ++k) {
    const double f =
        (k <= n / 2 ? static_cast<double>(k) : static_cast<double>(k) - static_cast<double>(n)) *
        sample_rate / static_cast<double>(n);
    const double mag = target(std::abs(f));
    const double phase = -2.0 * kPi * static_cast<double>(k) * mid / static_cast<double>(n);
    spec[k] = std::polar(mag, phase);
  }
  std::vector<std::complex<double>> impulse = ifft(spec);
  const std::vector<double> w = hann_window(n);
  std::vector<double> h(n);
  for (std::size_t i = 0; i < n; ++i) h[i] = impulse[i].real() * w[i];
  return h;
}

std::vector<double> fir_filter_same(std::span<const double> signal,
                                    std::span<const double> kernel) {
  require_nonempty("fir_filter_same kernel", kernel.size());
  std::vector<double> full = convolve(signal, kernel);
  const std::size_t delay = (kernel.size() - 1) / 2;
  std::vector<double> out(signal.size());
  for (std::size_t i = 0; i < signal.size(); ++i) out[i] = full[i + delay];
  return out;
}

double fir_magnitude_at(std::span<const double> kernel, double frequency_hz,
                        double sample_rate) {
  require_positive("sample_rate", sample_rate);
  require_nonempty("fir kernel", kernel.size());
  const double w = 2.0 * kPi * frequency_hz / sample_rate;
  std::complex<double> acc{0.0, 0.0};
  for (std::size_t i = 0; i < kernel.size(); ++i)
    acc += kernel[i] * std::polar(1.0, -w * static_cast<double>(i));
  return std::abs(acc);
}

}  // namespace earsonar::dsp
