// Feature extraction (paper §IV-C2): a 105-element vector per recording made
// of MFCC features and statistical features of the eardrum-echo power
// spectrum. The paper does not itemize the 105 slots; this implementation
// fixes a deterministic layout (documented below and in DESIGN.md):
//
//   3 x 13 = 39  MFCCs of the early / middle / late chirp-group spectra
//        30      log sub-band powers of the mean echo PSD
//        24      uniform samples of the normalized mean PSD
//         6      spectral-shape features (dip frequency & depth, centroid,
//                low/high band-power ratio, slope, 85% roll-off)
//         6      summary statistics (mean, std, min, max, skewness, kurtosis)
//       ----
//       105
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "audio/waveform.hpp"
#include "core/absorption.hpp"
#include "core/segment.hpp"
#include "dsp/spectrum.hpp"

namespace earsonar::core {

struct FeatureConfig {
  SpectrumConfig spectrum;
  std::size_t mfcc_coefficients = 13;
  std::size_t mfcc_filters = 24;
  std::size_t time_groups = 3;     ///< early/middle/late chirp groups
  std::size_t subband_powers = 30;
  std::size_t psd_samples = 24;

  [[nodiscard]] std::size_t dimension() const {
    return time_groups * mfcc_coefficients + subband_powers + psd_samples + 6 + 6;
  }
  void validate() const;
};

class FeatureExtractor {
 public:
  /// `probe` is the chirp design: its band is the analysis band of the
  /// spectra and of the spectral-shape features, and its clean chirp is the
  /// transmit reference (see EchoSpectrumExtractor).
  explicit FeatureExtractor(FeatureConfig config = {}, const audio::FmcwConfig& probe = {});

  /// extract() plus the whole-recording mean echo spectrum it is built on.
  struct Result {
    std::vector<double> features;
    dsp::Spectrum mean_spectrum;
  };

  /// The full feature vector for one recording's segmented echoes.
  [[nodiscard]] std::vector<double> extract(const audio::Waveform& signal,
                                            const std::vector<EchoSegment>& echoes) const;

  /// extract(), also returning the mean echo spectrum. Every per-echo PSD row
  /// is computed exactly once and shared between the time-group averages, the
  /// mean spectrum, and the derived features, so this costs one extraction
  /// pass where calling extract() + EchoSpectrumExtractor::average()
  /// separately costs three. Outputs are bit-identical to those calls.
  [[nodiscard]] Result extract_full(const audio::Waveform& signal,
                                    const std::vector<EchoSegment>& echoes) const;

  /// extract_full() when the per-echo band PSD rows are already in hand —
  /// the pipeline's echo_psd stage extracts them (EchoSpectrumExtractor::
  /// extract_all), then the features stage assembles the recording's
  /// features through this entry point. `rows`
  /// must be extract_all(signal, echoes)'s output for `echoes` echoes; the
  /// result is bit-identical to extract_full().
  [[nodiscard]] Result extract_full_from_rows(std::size_t echoes,
                                              std::span<const double> rows) const;

  /// MFCC-style coefficients of one band spectrum on an ascending frequency
  /// grid (mel triangles across the analysis band, log, DCT-II). Exposed for
  /// tests; the feature path runs the same weights, built once for the
  /// extractor's band grid.
  [[nodiscard]] std::vector<double> band_mfcc(const dsp::Spectrum& spectrum) const;

  [[nodiscard]] std::size_t dimension() const { return config_.dimension(); }
  [[nodiscard]] const FeatureConfig& config() const { return config_; }

  /// The inner per-echo PSD extractor, for callers that run the PSD stage
  /// on its own (EarSonar::analyze_filtered) before assembling features
  /// through extract_full_from_rows().
  [[nodiscard]] const EchoSpectrumExtractor& spectrum_extractor() const {
    return extractor_;
  }

 private:
  /// Mel triangle weights on one ascending grid: filter f sums
  /// weight[offset[f] + j] * psd[first[f] + j] over its run of bins.
  struct MelWeights {
    std::vector<std::size_t> first, offset;
    std::vector<double> weight;
    static MelWeights build(const std::vector<double>& freq, std::size_t filter_count);
    /// Log filter energies of `psd` on the grid, then the truncated DCT-II.
    [[nodiscard]] std::vector<double> mfcc(const double* psd,
                                           std::size_t coefficients) const;
  };

  FeatureConfig config_;
  EchoSpectrumExtractor extractor_;
  MelWeights mel_;  ///< on extractor_.band_frequencies(); empty if too coarse
};

/// Human-readable name of feature slot `index` under `config`'s layout.
std::string feature_name(const FeatureConfig& config, std::size_t index);

}  // namespace earsonar::core
