#include "audio/chirp.hpp"

#include <cmath>
#include <numbers>

#include "common/error.hpp"
#include "dsp/window.hpp"

namespace earsonar::audio {

std::size_t FmcwConfig::chirp_samples() const {
  return static_cast<std::size_t>(std::lround(duration_s * sample_rate));
}

std::size_t FmcwConfig::interval_samples() const {
  return static_cast<std::size_t>(std::lround(interval_s * sample_rate));
}

void FmcwConfig::validate() const {
  require_positive("FmcwConfig.sample_rate", sample_rate);
  require_positive("FmcwConfig.duration_s", duration_s);
  require_positive("FmcwConfig.bandwidth_hz", bandwidth_hz);
  require(start_hz > 0.0, "FmcwConfig: start_hz must be > 0");
  require(end_hz() <= sample_rate / 2.0, "FmcwConfig: chirp exceeds Nyquist");
  require(interval_s >= duration_s, "FmcwConfig: interval must be >= duration");
  require(amplitude > 0.0 && amplitude <= 1.0, "FmcwConfig: amplitude must be in (0, 1]");
  require(chirp_samples() >= 4, "FmcwConfig: chirp shorter than 4 samples");
}

Waveform make_chirp(const FmcwConfig& config) {
  config.validate();
  const std::size_t n = config.chirp_samples();
  std::vector<double> samples(n);
  const double slope = config.bandwidth_hz / config.duration_s;  // Hz per second
  for (std::size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i) / config.sample_rate;
    const double phase =
        2.0 * std::numbers::pi * (config.start_hz * t + 0.5 * slope * t * t);
    samples[i] = config.amplitude * std::sin(phase);
  }
  if (config.hann_shaped) {
    const std::vector<double> w = dsp::hann_window(n);
    dsp::apply_window_inplace(samples, w);
  }
  return Waveform(std::move(samples), config.sample_rate);
}

Waveform make_chirp_train(const FmcwConfig& config, std::size_t chirp_count) {
  config.validate();
  require(chirp_count >= 1, "make_chirp_train: need >= 1 chirp");
  const Waveform pulse = make_chirp(config);
  Waveform train = Waveform::silence(chirp_count * config.interval_samples(),
                                     config.sample_rate);
  for (std::size_t k = 0; k < chirp_count; ++k)
    train.add_at(pulse, chirp_start_sample(config, k));
  return train;
}

std::size_t chirp_start_sample(const FmcwConfig& config, std::size_t chirp_index) {
  return chirp_index * config.interval_samples();
}

}  // namespace earsonar::audio
