// Adaptive-energy event detection (paper §IV-B2, Eq. 6-7).
//
// Each transmitted chirp and its echoes form one high-energy event in the
// microphone stream. A sliding window tracks the mean and standard deviation
// of signal power with exponential updates; a sample whose power exceeds
// mu(i) + sigma(i) opens an event, and the event closes when the windowed
// power falls back below the global mean power.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "audio/waveform.hpp"

namespace earsonar::dsp {
struct EnvelopeFold;
}  // namespace earsonar::dsp

namespace earsonar::core {

struct Event {
  std::size_t start = 0;  ///< first sample of the event
  std::size_t end = 0;    ///< one past the last sample

  [[nodiscard]] std::size_t length() const { return end - start; }
};

struct EventDetectorConfig {
  std::size_t window = 48;        ///< W, running-statistics length (1 ms @ 48 kHz)
  std::size_t smooth = 16;        ///< centered power-envelope smoothing length
  double start_threshold_k = 1.0; ///< open at mu + k * sigma
  /// An event's peak envelope must exceed this multiple of the global mean
  /// power; stationary noise wiggles correlate over the smoothing window and
  /// would otherwise register as short events.
  double prominence = 3.0;
  /// The peak must also exceed this multiple of the *median* envelope — a
  /// robust noise-floor estimate (for a duty-cycled chirp train the median is
  /// the inter-chirp floor; for stationary noise it is the noise mean, which
  /// envelope fluctuations essentially never exceed six-fold).
  double floor_prominence = 6.0;
  std::size_t min_length = 16;    ///< discard shorter blips
  std::size_t max_length = 480;   ///< clamp runaway events (two intervals)
  std::size_t merge_gap = 24;     ///< merge events closer than this

  void validate() const;
};

class AdaptiveEventDetector {
 public:
  explicit AdaptiveEventDetector(EventDetectorConfig config = {});

  /// All detected events, in order, non-overlapping.
  [[nodiscard]] std::vector<Event> detect(const audio::Waveform& signal) const;

  /// detect() on a signal whose power envelope was folded as it was filtered
  /// (a streaming session's, see dsp::EnvelopeFold): `fold` has folded every
  /// sample, with the detector's `smooth`, which must not exceed the sample
  /// count. Closes the fold and scans it; the same events as detect() on
  /// the signal.
  [[nodiscard]] std::vector<Event> detect(dsp::EnvelopeFold& fold) const;

  [[nodiscard]] const EventDetectorConfig& config() const { return config_; }

 private:
  /// Eq. 6-7 over a completed fold of a whole signal.
  [[nodiscard]] std::vector<Event> scan(dsp::EnvelopeFold& fold) const;

  EventDetectorConfig config_;
};

/// Re-anchors an event at the chirp onset: the first sample whose short-run
/// smoothed envelope crosses 10% of the event's peak envelope. Event
/// detection opens on an adaptive threshold whose exact crossing moves with
/// the noise floor; this re-alignment pins every analysis window to the same
/// point of the chirp. `signal[i]` is the sample at absolute index i; the
/// event's indices must lie inside the signal.
[[nodiscard]] std::size_t aligned_event_start(std::span<const double> signal,
                                              const Event& event);

}  // namespace earsonar::core
