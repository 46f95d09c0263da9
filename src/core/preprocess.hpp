// Signal preprocessing (paper §IV-B1): Butterworth band-pass around the
// probe band to strip ambient noise. The paper's Hanning pulse shaping,
// which raises each chirp's peak-to-sidelobe ratio, happens on the transmit
// side (`FmcwConfig::hann_shaped` in src/audio/chirp.hpp), not here.
#pragma once

#include "audio/waveform.hpp"
#include "dsp/biquad.hpp"

namespace earsonar::core {

struct PreprocessConfig {
  int butterworth_order = 4;      ///< prototype order (bandpass => 8 poles)
  double band_low_hz = 15000.0;   ///< slightly wider than the 16-20 kHz chirp
  double band_high_hz = 21000.0;
  bool zero_phase = true;         ///< filtfilt (offline pipeline) vs causal

  void validate(double sample_rate) const;
};

class Preprocessor {
 public:
  explicit Preprocessor(PreprocessConfig config = {});

  /// Band-pass-filters the recording; the output keeps the sample rate.
  [[nodiscard]] audio::Waveform process(const audio::Waveform& input) const;

  /// The designed cascade with fresh state, for chunk-at-a-time (streaming)
  /// callers. Feeding chunks through BiquadCascade::process, state carried
  /// across calls, is bit-identical to process() with zero_phase = false on
  /// the concatenated signal — causal IIR filtering is a pure per-sample
  /// recurrence. Zero-phase filtering has no streaming form (it runs the
  /// signal backwards), so streaming deployments configure zero_phase = false.
  [[nodiscard]] dsp::BiquadCascade streaming_filter(double sample_rate) const {
    return design(sample_rate);
  }

  [[nodiscard]] const PreprocessConfig& config() const { return config_; }

  /// Magnitude response of the designed filter at `frequency_hz` (for tests).
  [[nodiscard]] double magnitude_at(double frequency_hz, double sample_rate) const;

 private:
  [[nodiscard]] dsp::BiquadCascade design(double sample_rate) const;
  PreprocessConfig config_;
};

}  // namespace earsonar::core
