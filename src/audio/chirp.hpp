// FMCW chirp synthesis (paper §IV-A).
//
// EarSonar probes the ear with linear up-chirps: f0 = 16 kHz, bandwidth
// B = 4 kHz, duration T = 0.5 ms, inter-chirp interval 5 ms, at a 48 kHz
// sample rate — intermittent so ear-canal multipath and the eardrum echo stay
// separable in time.
#pragma once

#include <cstddef>
#include <vector>

#include "audio/waveform.hpp"

namespace earsonar::audio {

/// Parameters of the probing FMCW chirp train, defaulting to the paper's.
struct FmcwConfig {
  double start_hz = 16000.0;      ///< f0, chirp start frequency
  double bandwidth_hz = 4000.0;   ///< B, swept bandwidth (f0 -> f0+B)
  double duration_s = 0.0005;     ///< T, single-chirp duration (0.5 ms)
  double interval_s = 0.005;      ///< spacing between chirp starts (5 ms)
  double sample_rate = 48000.0;
  /// Peak amplitude. The probe is deliberately quiet ("relatively weak and
  /// beyond the range of human hearing", paper §II-B): 0.12 of full scale is
  /// ~76 dB SPL under the library's calibration.
  double amplitude = 0.12;
  bool hann_shaped = true;        ///< taper each chirp with a Hann envelope

  [[nodiscard]] std::size_t chirp_samples() const;
  [[nodiscard]] std::size_t interval_samples() const;
  [[nodiscard]] double end_hz() const { return start_hz + bandwidth_hz; }

  /// Validates the physical constraints (band below Nyquist, T < interval).
  void validate() const;
};

/// One chirp pulse: amplitude * sin(2*pi*(f0 t + B t^2 / (2 T))).
Waveform make_chirp(const FmcwConfig& config);

/// A train of `chirp_count` chirps separated by the configured interval;
/// total length = chirp_count * interval_samples.
Waveform make_chirp_train(const FmcwConfig& config, std::size_t chirp_count);

/// Start sample of chirp k within a train.
std::size_t chirp_start_sample(const FmcwConfig& config, std::size_t chirp_index);

}  // namespace earsonar::audio
