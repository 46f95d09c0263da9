// FIR design by frequency sampling and linear filtering. The simulator
// renders the eardrum's frequency-dependent reflectance as an FIR kernel, so
// arbitrary reflectance curves become convolutions.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace earsonar::dsp {

/// Designs a linear-phase FIR whose magnitude response approximates the
/// piecewise-linear curve given by (frequencies_hz[i] -> magnitudes[i]) using
/// the frequency-sampling method. `taps` must be odd. Frequencies must be
/// ascending and within [0, Nyquist]; the curve is extended flat at both ends.
std::vector<double> fir_from_magnitude(std::span<const double> frequencies_hz,
                                       std::span<const double> magnitudes,
                                       std::size_t taps, double sample_rate);

/// Convolution trimmed to the input length with the kernel's group delay
/// compensated (linear-phase kernels line up with the input).
std::vector<double> fir_filter_same(std::span<const double> signal,
                                    std::span<const double> kernel);

/// Magnitude response of an FIR at `frequency_hz`.
double fir_magnitude_at(std::span<const double> kernel, double frequency_hz,
                        double sample_rate);

}  // namespace earsonar::dsp
