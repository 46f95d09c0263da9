// Eardrum-echo segmentation by even/odd (parity) decomposition
// (paper §IV-B3, following Gnutti et al.'s local-symmetry representation).
//
// Within each detected event the auto-convolution (x * x)[m] peaks at twice
// the centers of local even/odd symmetry. Each candidate center is validated
// by the parity energy ratio of a fixed-support subsequence, and the eardrum
// echo is the qualifying candidate that sits at a physically plausible
// ear-canal distance behind the direct (speaker-to-mic) pulse.
//
// The probe design (chirp timing and band, sample rate) is stated once, in
// audio::FmcwConfig; the segmenter reads its emission grid from the probe it
// is built with and its sample rate from the signal it segments.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "audio/chirp.hpp"
#include "audio/waveform.hpp"
#include "core/event_detect.hpp"

namespace earsonar::core {

struct SegmenterConfig {
  std::size_t min_support = 16;       ///< ml, symmetric support length (samples)
  double parity_threshold = 0.70;     ///< pt in (0.5, 1): even/odd energy ratio
  double min_distance_m = 0.019;      ///< echo search window behind the direct
  double max_distance_m = 0.038;      ///<   pulse: the anatomical 2-3.5 cm + margin

  void validate() const;
};

/// A symmetry candidate found inside an event.
struct SymmetryCandidate {
  double center = 0.0;        ///< position within the event (samples, may be x.5)
  double parity_ratio = 0.0;  ///< max(Ee, Eo) / E of the local support
  double energy = 0.0;        ///< energy of the local support
};

/// The segmented eardrum echo.
struct EchoSegment {
  std::size_t event_start = 0;       ///< event offset in the full recording
  std::size_t peak_index = 0;        ///< echo peak, absolute sample index
  std::size_t direct_peak_index = 0; ///< direct (speaker-to-mic) pulse peak
  double distance_m = 0.0;           ///< inferred reflector distance
  double parity_ratio = 0.0;
  bool from_fallback = false;        ///< true when the distance-prior fallback fired
};

class ParityEchoSegmenter {
 public:
  /// `probe` supplies the emission grid. The shadowed microphone makes the
  /// direct leak too weak to locate by amplitude, but the app drives the
  /// speaker itself, so emission times sit on a known grid: chirp k starts at
  /// k * probe.interval_s and its direct pulse peaks probe.duration_s / 2
  /// later. The segmenter anchors the direct pulse to the grid point nearest
  /// the detected event.
  explicit ParityEchoSegmenter(SegmenterConfig config = {},
                               const audio::FmcwConfig& probe = {});

  /// Locates the eardrum echo inside one event of the (preprocessed)
  /// recording, in samples at the recording's rate. Returns nullopt when the
  /// event is too short to contain an echo at the minimum distance.
  [[nodiscard]] std::optional<EchoSegment> segment(const audio::Waveform& signal,
                                                   const Event& event) const;

  /// All parity candidates of a sequence (exposed for tests/diagnostics).
  [[nodiscard]] std::vector<SymmetryCandidate> candidates(
      std::span<const double> x) const;

  [[nodiscard]] const SegmenterConfig& config() const { return config_; }
  [[nodiscard]] const audio::FmcwConfig& probe() const { return probe_; }

 private:
  SegmenterConfig config_;
  audio::FmcwConfig probe_;
};

/// Even/odd parity energies of `x` about center index n0 (Eq. 8-10):
/// returns {Ee, Eo}. n0 is expressed in half-sample units 2*n0 = k.
struct ParityEnergies {
  double even = 0.0;
  double odd = 0.0;
};
ParityEnergies parity_energies(std::span<const double> x, double n0);

/// Consensus re-anchoring over one recording's echoes: within a recording the
/// eardrum does not move, so each echo's offset behind its direct pulse is
/// re-set to the per-recording median, suppressing chirp-to-chirp anchor
/// jitter from movement or a wall reflection occasionally outscoring the drum
/// echo. No-op for fewer than three echoes (no consensus to take). Exposed as
/// a free function so callers that analyze a chirp *subset* (the degraded
/// path, tests reproducing it) anchor exactly like the full pipeline.
void reanchor_echoes(std::vector<EchoSegment>& echoes, double sample_rate);

}  // namespace earsonar::core
