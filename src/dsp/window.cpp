#include "dsp/window.hpp"

#include <cmath>
#include <numbers>

#include "common/error.hpp"
#include "dsp/simd.hpp"

namespace earsonar::dsp {

namespace {
constexpr double kPi = std::numbers::pi;

// Generalized cosine window: w[i] = sum_k (-1)^k a_k cos(2*pi*k*i/(N-1)).
std::vector<double> cosine_window(std::size_t n, std::span<const double> coeffs) {
  std::vector<double> w(n, 1.0);
  if (n == 1) return w;
  const double denom = static_cast<double>(n - 1);
  for (std::size_t i = 0; i < n; ++i) {
    double acc = 0.0;
    double sign = 1.0;
    for (std::size_t k = 0; k < coeffs.size(); ++k) {
      acc += sign * coeffs[k] * std::cos(2.0 * kPi * static_cast<double>(k) *
                                         static_cast<double>(i) / denom);
      sign = -sign;
    }
    w[i] = acc;
  }
  return w;
}
}  // namespace

std::vector<double> make_window(WindowType type, std::size_t length, double gaussian_sigma) {
  require_nonempty("window length", length);
  switch (type) {
    case WindowType::kRectangular:
      return std::vector<double>(length, 1.0);
    case WindowType::kHann:
      return hann_window(length);
    case WindowType::kHamming:
      return hamming_window(length);
    case WindowType::kBlackman:
      return blackman_window(length);
    case WindowType::kBlackmanHarris: {
      const double coeffs[] = {0.35875, 0.48829, 0.14128, 0.01168};
      return cosine_window(length, coeffs);
    }
    case WindowType::kGaussian: {
      require_positive("gaussian_sigma", gaussian_sigma);
      std::vector<double> w(length);
      const double half = (static_cast<double>(length) - 1.0) / 2.0;
      for (std::size_t i = 0; i < length; ++i) {
        const double t = (static_cast<double>(i) - half) / (gaussian_sigma * half == 0.0
                                                                ? 1.0
                                                                : gaussian_sigma * half);
        w[i] = std::exp(-0.5 * t * t);
      }
      return w;
    }
  }
  throw std::invalid_argument("make_window: unknown window type");
}

std::vector<double> hann_window(std::size_t length) {
  const double coeffs[] = {0.5, 0.5};
  require_nonempty("window length", length);
  return cosine_window(length, coeffs);
}

std::vector<double> hamming_window(std::size_t length) {
  const double coeffs[] = {0.54, 0.46};
  require_nonempty("window length", length);
  return cosine_window(length, coeffs);
}

std::vector<double> blackman_window(std::size_t length) {
  const double coeffs[] = {0.42, 0.5, 0.08};
  require_nonempty("window length", length);
  return cosine_window(length, coeffs);
}

void apply_window_inplace(std::span<double> signal, std::span<const double> window) {
  require(signal.size() == window.size(), "apply_window: size mismatch");
  simd::active().mul_d(signal.data(), signal.data(), window.data(), signal.size());
}

std::vector<double> apply_window(std::span<const double> signal,
                                 std::span<const double> window) {
  std::vector<double> out(signal.begin(), signal.end());
  apply_window_inplace(out, window);
  return out;
}

double window_power(std::span<const double> window) {
  double acc = 0.0;
  for (double w : window) acc += w * w;
  return acc;
}

}  // namespace earsonar::dsp
