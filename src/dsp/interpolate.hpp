// Interpolation and resampling. The simulator uses fractional-delay
// interpolation to place echoes off the sample grid, and ingest converts
// captures at other rates to the pipeline rate. (The absorption analysis
// does not interpolate its echo window: zero-padding to the FFT length
// gives the fine frequency grid — see src/core/absorption.hpp.)
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace earsonar::dsp {

/// Reads signal at a fractional index via Hann-windowed-sinc interpolation
/// (16 taps): flat to within a fraction of a dB up to ~0.45 fs, which the
/// 16-20 kHz probe band at 48 kHz requires. Indices outside the signal
/// return 0; samples beyond the edges are treated as silence.
double sample_fractional_sinc(std::span<const double> signal, double index);

/// Converts `signal` from `source_rate` to `target_rate` using windowed-sinc
/// interpolation. When downsampling, an anti-alias Butterworth low-pass at
/// 0.45 * target_rate is applied first. Output length is
/// round(n * target/source).
std::vector<double> resample_to_rate(std::span<const double> signal,
                                     double source_rate, double target_rate);

}  // namespace earsonar::dsp
