// Second-order IIR sections and cascades — the runtime form of every filter
// the Butterworth designer produces.
#pragma once

#include <complex>
#include <cstddef>
#include <span>
#include <string>
#include <vector>

namespace earsonar::dsp {

/// One direct-form-II-transposed second-order section:
///   H(z) = (b0 + b1 z^-1 + b2 z^-2) / (1 + a1 z^-1 + a2 z^-2)
struct Biquad {
  double b0 = 1.0, b1 = 0.0, b2 = 0.0;
  double a1 = 0.0, a2 = 0.0;

  /// Complex frequency response at normalized angular frequency w (rad/sample).
  [[nodiscard]] std::complex<double> response(double w) const;

  /// True when both poles are strictly inside the unit circle.
  [[nodiscard]] bool is_stable() const;
};

/// A cascade of biquads with per-instance state, processed in sequence.
class BiquadCascade {
 public:
  /// Transposed-DF2 delay line of one section.
  struct State {
    double z1 = 0.0, z2 = 0.0;
  };

  BiquadCascade() = default;
  explicit BiquadCascade(std::vector<Biquad> sections);

  /// Filters one sample through every section (stateful).
  double process_sample(double x);

  /// Filters a block; returns the filtered signal. Stateful across calls.
  std::vector<double> process(std::span<const double> input);

  /// Filters a block in place; the same samples as process(). Stateful
  /// across calls.
  void process_in_place(std::span<double> data);

  /// Zero-phase filtering: forward pass, reverse, forward again, reverse.
  /// Uses fresh state; does not disturb this cascade's streaming state.
  [[nodiscard]] std::vector<double> filtfilt(std::span<const double> input) const;

  /// Clears the delay lines.
  void reset();

  /// Combined complex response at normalized angular frequency w (rad/sample).
  [[nodiscard]] std::complex<double> response(double w) const;

  /// Combined magnitude response at `frequency_hz` given `sample_rate`.
  [[nodiscard]] double magnitude_at(double frequency_hz, double sample_rate) const;

  [[nodiscard]] bool is_stable() const;
  [[nodiscard]] std::size_t section_count() const { return sections_.size(); }
  [[nodiscard]] const std::vector<Biquad>& sections() const { return sections_; }

  /// The delay lines, one State per section.
  [[nodiscard]] const std::vector<State>& state() const { return state_; }

 private:
  std::vector<Biquad> sections_;
  std::vector<State> state_;
};

/// The kernel BiquadCascade::process and filtfilt run in this process for a
/// cascade of `section_count` sections: "wavefront_<kernel set>" (four
/// sections on a four-lane set — "wavefront_avx2", or "wavefront_pack4" under
/// EARSONAR_SIMD=scalar) or "scalar" (the sample-major loop). Bench reports
/// carry it as the `earsonar_biquad_path` context field.
[[nodiscard]] std::string biquad_path(std::size_t section_count);

}  // namespace earsonar::dsp
