// Acoustic absorption analysis (paper §IV-C1): one chain from a fixed echo
// window to a band PSD. Each chirp's window is zero-padded to fft_size and
// Fourier-transformed into a power spectral density, resampled onto a
// uniform grid across the chirp band, and divided by the transmit reference
// (the clean chirp pushed through the same chain); per-chirp PSDs are
// averaged into one echo spectrum per recording.
//
// The probe design is stated once, in audio::FmcwConfig: the extractor
// builds its band grid, its transform plan and its transmit reference from
// the one probe it is constructed with, so the three cannot disagree.
//
// The transform computes only the bins the band resample reads, four
// windows at a time (dsp::BandPsdPlan: broadcast blocks plus the butterfly
// runs the band needs), and each band bin equals the full transform's bit
// for bit. Per-echo results are rows of one flat buffer per recording, not
// dsp::Spectrum objects: the band grid is the same for every row.
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
// reference divided out it *is* the absorbed-energy measurement, the paper's
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
  std::size_t band_bins = 128;         ///< uniform grid of the output spectrum
                                       ///<   across the probe's chirp band

  void validate() const;
};

class EchoSpectrumExtractor {
 public:
  /// The analysis band is the probe's chirp band (outside it the ratio is
  /// noise/noise). The transmit reference is the band PSD of the clean probe
  /// chirp pushed through the same window/FFT processing; every extracted
  /// PSD is divided by it, so the output reads the channel response |H(f)|^2
  /// (eardrum reflectance imprint) instead of the chirp's own spectrum.
  /// Throws when the probe is invalid (audio::FmcwConfig::validate).
  explicit EchoSpectrumExtractor(SpectrumConfig config = {},
                                 const audio::FmcwConfig& probe = {});

  /// The uniform band grid every PSD row lives on: band_bins frequencies
  /// from the probe's start_hz to its end_hz(). Independent of the sample
  /// rate.
  [[nodiscard]] const std::vector<double>& band_frequencies() const { return grid_; }

  /// Band PSD (on the uniform band grid) of one echo window, divided by the
  /// transmit reference. A one-echo extract_all().
  [[nodiscard]] dsp::Spectrum extract(const audio::Waveform& signal,
                                      const EchoSegment& echo) const;

  /// Band PSD rows of every echo of one recording: echo e's band_bins
  /// values (on band_frequencies(), divided by the reference) start at
  /// [e * band_bins]. Windows are read in place; only a
  /// window that crosses the recording's first or last sample goes through a
  /// zero-filled copy. The windows run four at a time through one
  /// dsp::BandPsdPlan; the last group's unused lanes are zero. Each lane's
  /// arithmetic is independent of its lane-mates and every computed bin
  /// equals the full FftPlan::power_spectrum of the zero-padded window bit
  /// for bit. The rows feed several downstream consumers (time-group
  /// averages, the whole-recording mean); extracting them once and averaging
  /// row ranges with mean_rows() avoids re-running the window/FFT chain per
  /// consumer.
  [[nodiscard]] std::vector<double> extract_all(
      const audio::Waveform& signal, const std::vector<EchoSegment>& echoes) const;

  /// Element-wise mean of `count` consecutive rows starting at `rows`,
  /// accumulated in row order into `out` (band_bins values).
  void mean_rows(const double* rows, std::size_t count, double* out) const;

  /// Average spectrum over many echoes of the same recording (element-wise
  /// mean of the per-echo PSDs).
  [[nodiscard]] dsp::Spectrum average(const audio::Waveform& signal,
                                      const std::vector<EchoSegment>& echoes) const;

  [[nodiscard]] const SpectrumConfig& config() const { return config_; }
  [[nodiscard]] const audio::FmcwConfig& probe() const { return probe_; }

 private:
  /// One analysis window: `window_len` samples of `signal` from `start`
  /// (which may lie outside the recording; those samples read as zero).
  struct Window {
    const audio::Waveform* signal;
    std::ptrdiff_t start;
    double* row;  ///< band_bins outputs
  };
  /// Band PSD rows of windows that share one sample rate and length, four
  /// at a time, each divided element-wise by `reference` unless it is null.
  void run_windows(std::span<const Window> windows, std::size_t window_len,
                   double fs, const double* reference) const;
  SpectrumConfig config_;
  audio::FmcwConfig probe_;
  std::vector<double> grid_;       ///< band_frequencies()
  std::vector<double> reference_;  ///< transmit-reference band PSD
};

}  // namespace earsonar::core
