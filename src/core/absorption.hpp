// Acoustic absorption analysis (paper §IV-C1): one chain from a fixed echo
// window to a band PSD. Each chirp's window is zero-padded to fft_size and
// Fourier-transformed into a power spectral density, resampled onto a
// uniform grid across the chirp band, and divided by the transmit reference
// (the clean chirp pushed through the same chain); per-chirp PSDs are
// averaged into one echo spectrum per recording.
//
// Three implementation choices matter at a 48 kHz sample rate, where the drum
// echo overlaps the tail of the direct speaker-to-mic pulse (paper Fig. 7b):
//   * the echo-peak window (WindowAnchor::kEchoPeak) is asymmetric — a short
//     lead before the peak and a long tail after it, because a fluid-loaded
//     drum's notched reflectance rings and that ringing outlives the direct
//     pulse;
//   * the window is zero-padded, not interpolated, before the FFT, although
//     the paper speaks of an "interpolated signal": zero-padding already
//     yields the fine frequency grid, and spline evaluation is slightly lossy
//     for content close to Nyquist (the 16-20 kHz band at 48 kHz);
//   * the window is not tapered: the chirp + echo transient decays to zero
//     inside it, and a taper would re-weight the chirp's time-frequency sweep
//     and make the band shape sensitive to sample-level window placement.
//
// The spectrum level is kept (no peak normalization): with the transmit
// reference installed it *is* the absorbed-energy measurement, the paper's
// core observable. Feature code derives a peak-normalized shape copy where
// it needs one.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "audio/chirp.hpp"
#include "audio/waveform.hpp"
#include "core/segment.hpp"
#include "dsp/spectrum.hpp"

namespace earsonar::core {

/// How the analysis window is anchored.
///  * kEventStart — a fixed-length window from the start of the detected
///    event, covering the full chirp + echo composite. Deterministic (no
///    anchor jitter) and echo-dominated with the prototype's shadowed
///    microphone; the library default.
///  * kEchoPeak — centered window around the segmented echo peak, the
///    paper's literal description ("take the peak sampling point of the
///    eardrum as the centre"). Sensitive to anchor jitter at 48 kHz, where
///    one sample is 3.6 mm of reflector distance; kept for ablation.
///  * kDirectGate — a fixed time gate opening behind the direct-pulse peak,
///    isolating the late ringing tail; kept for ablation.
enum class WindowAnchor { kEventStart, kEchoPeak, kDirectGate };

struct SpectrumConfig {
  WindowAnchor anchor = WindowAnchor::kEventStart;
  std::size_t event_window_length = 72;///< kEventStart: window duration
  std::size_t pre_peak = 8;            ///< kEchoPeak: samples before the peak
  std::size_t post_peak = 56;          ///< kEchoPeak: samples after it
  std::size_t gate_start = 28;         ///< kDirectGate: gate opens this many
                                       ///<   samples after the direct peak
  std::size_t gate_length = 40;        ///< kDirectGate: gate duration
  std::size_t fft_size = 512;          ///< zero-padded transform length;
                                       ///<   must hold every analysis window
  double band_low_hz = 16000.0;        ///< analysis band == the chirp band;
  double band_high_hz = 20000.0;       ///< outside it the ratio is noise/noise
  std::size_t band_bins = 128;         ///< uniform grid of the output spectrum

  void validate() const;
};

class EchoSpectrumExtractor {
 public:
  explicit EchoSpectrumExtractor(SpectrumConfig config = {});

  /// Installs the transmit-reference spectrum: the band PSD of the clean
  /// probe chirp pushed through the same window/FFT processing. When set,
  /// every extracted PSD is divided by it, so the output reads the channel
  /// response |H(f)|^2 (eardrum reflectance imprint) instead of the chirp's
  /// own spectrum. The pipeline installs this automatically from its chirp
  /// design.
  void set_reference(const audio::FmcwConfig& chirp);
  [[nodiscard]] bool has_reference() const { return !reference_.psd.empty(); }

  /// Band PSD (on the uniform band grid) of one echo window, divided by the
  /// transmit reference when one is installed.
  [[nodiscard]] dsp::Spectrum extract(const audio::Waveform& signal,
                                      const EchoSegment& echo) const;

  /// One recording's window-extraction work order for extract_all_multi.
  struct EchoBatch {
    const audio::Waveform* signal = nullptr;
    const std::vector<EchoSegment>* echoes = nullptr;
  };

  /// extract() for every echo of many recordings in one pass: the flattened
  /// (recording, echo) windows pack into four-lane power_spectrum_band_x4
  /// groups that may cross recording boundaries, so a batch of short
  /// recordings still fills the kernel. Each lane's arithmetic is
  /// independent of its lane-mates (the x4 kernel equals four single calls
  /// bitwise), so result [i][e] is bit-identical to
  /// extract(*items[i].signal, (*items[i].echoes)[e]). The ragged tail runs
  /// as one x4 group with zero lanes; recordings at different sample rates
  /// are extracted one at a time.
  [[nodiscard]] std::vector<std::vector<dsp::Spectrum>> extract_all_multi(
      std::span<const EchoBatch> items) const;

  /// extract_all_multi() over one recording. The per-echo PSDs feed several
  /// downstream consumers (time-group averages, the whole-recording mean);
  /// extracting them once and averaging subranges with average_of() avoids
  /// re-running the window/FFT chain per consumer.
  [[nodiscard]] std::vector<dsp::Spectrum> extract_all(
      const audio::Waveform& signal, const std::vector<EchoSegment>& echoes) const;

  /// Element-wise mean of already-extracted per-echo spectra, accumulated in
  /// order — bit-identical to average() over the matching echoes.
  [[nodiscard]] dsp::Spectrum average_of(std::span<const dsp::Spectrum> spectra) const;

  /// Average spectrum over many echoes of the same recording (element-wise
  /// mean of the per-echo PSDs).
  [[nodiscard]] dsp::Spectrum average(const audio::Waveform& signal,
                                      const std::vector<EchoSegment>& echoes) const;

  [[nodiscard]] const SpectrumConfig& config() const { return config_; }

 private:
  /// Band PSD of signal[center-pre, center+post], zero-padded to fft_size.
  [[nodiscard]] dsp::Spectrum window_psd(const audio::Waveform& signal,
                                         std::size_t center, std::size_t pre,
                                         std::size_t post) const;
  /// Reference division applied to one echo's band PSD — the tail of
  /// extract(), shared with the packed extract_all_multi path.
  [[nodiscard]] dsp::Spectrum finalize(dsp::Spectrum spectrum) const;
  SpectrumConfig config_;
  dsp::Spectrum reference_;  ///< transmit-reference band PSD (may be empty)
};

}  // namespace earsonar::core
