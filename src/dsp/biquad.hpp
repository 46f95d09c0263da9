// Second-order IIR sections and cascades — the runtime form of every filter
// the Butterworth designer produces.
#pragma once

#include <complex>
#include <cstddef>
#include <span>
#include <string>
#include <vector>

namespace earsonar::dsp {

struct EnvelopeFold;

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
  /// across calls. With `fold`, every filtered sample is also folded into
  /// the power envelope, as EnvelopeFold::fold over the output would: `data`
  /// must directly follow the samples already folded, in one buffer
  /// (data[-k] is sample fold->count - k). A four-section cascade in
  /// band-pass form on a four-lane kernel set folds in the filter's own
  /// loop.
  void process_in_place(std::span<double> data, EnvelopeFold* fold = nullptr);

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

  /// True for four sections in the band-pass form of
  /// simd::KernelSet::bandpass_wavefront4_d, which butterworth_bandpass
  /// designs at order 4.
  [[nodiscard]] bool bandpass_form() const { return bandpass_form_; }

 private:
  template <bool Reverse>
  void run(double* data, std::size_t n, EnvelopeFold* fold);

  std::vector<Biquad> sections_;
  std::vector<State> state_;
  bool bandpass_form_ = false;
};

/// The kernel BiquadCascade::process and filtfilt run in this process for
/// `cascade`: "bandpass_<kernel set>" (four sections in band-pass form on a
/// four-lane set — "bandpass_avx2", or "bandpass_pack4" under
/// EARSONAR_SIMD=scalar), "wavefront_<kernel set>" (other four-section
/// cascades) or "scalar" (the sample-major loop). Bench reports carry it as
/// the `earsonar_biquad_path` context field.
[[nodiscard]] std::string biquad_path(const BiquadCascade& cascade);

}  // namespace earsonar::dsp
