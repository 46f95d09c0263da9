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

/// Linear interpolation of y(x) at query points; x must be strictly
/// ascending; queries outside [x.front(), x.back()] clamp to the end values.
std::vector<double> interp_linear(std::span<const double> x, std::span<const double> y,
                                  std::span<const double> queries);

/// Reads signal at a fractional index via 4-point cubic (Catmull-Rom)
/// interpolation; indices outside [0, N-1] return 0 (the simulator treats the
/// world as silent outside the recording). Cheap but low-pass: several dB of
/// attenuation near 0.4 fs at half-sample offsets — do not use for wideband
/// probe signals.
double sample_fractional(std::span<const double> signal, double index);

/// Reads signal at a fractional index via Hann-windowed-sinc interpolation
/// (16 taps): flat to within a fraction of a dB up to ~0.45 fs, which the
/// 16-20 kHz probe band at 48 kHz requires. Indices outside the signal
/// return 0; samples beyond the edges are treated as silence.
double sample_fractional_sinc(std::span<const double> signal, double index);

/// Delays a signal by a fractional number of samples (same length output).
std::vector<double> fractional_delay(std::span<const double> signal, double delay_samples);

/// Converts `signal` from `source_rate` to `target_rate` using windowed-sinc
/// interpolation. When downsampling, an anti-alias Butterworth low-pass at
/// 0.45 * target_rate is applied first. Output length is
/// round(n * target/source).
std::vector<double> resample_to_rate(std::span<const double> signal,
                                     double source_rate, double target_rate);

}  // namespace earsonar::dsp
