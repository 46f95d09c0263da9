// Window functions. The paper shapes each chirp with a Hanning window to
// raise the peak-to-sidelobe ratio (§IV-B1); the spectrum code also uses
// Hamming/Blackman for Welch averaging and tests.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace earsonar::dsp {

enum class WindowType { kRectangular, kHann, kHamming, kBlackman, kBlackmanHarris, kGaussian };

/// Samples an N-point symmetric window of the given type.
/// `gaussian_sigma` only applies to kGaussian (relative sigma, default 0.4).
std::vector<double> make_window(WindowType type, std::size_t length,
                                double gaussian_sigma = 0.4);

/// N-point Hann window (the paper's "Hanning").
std::vector<double> hann_window(std::size_t length);

/// N-point Hamming window.
std::vector<double> hamming_window(std::size_t length);

/// N-point Blackman window.
std::vector<double> blackman_window(std::size_t length);

/// Multiplies `signal` by `window` element-wise in place (sizes must match).
void apply_window_inplace(std::span<double> signal, std::span<const double> window);

/// Returns signal .* window (sizes must match).
std::vector<double> apply_window(std::span<const double> signal,
                                 std::span<const double> window);

/// Sum of squared window samples (power normalization term for PSDs).
double window_power(std::span<const double> window);

}  // namespace earsonar::dsp
