// Baseline: the prior acoustic MEE detector in the style of Chan et al.,
// "Detecting middle ear fluid using smartphones" (Science Translational
// Medicine 2019) — the "previous method" the paper beats by ~8%.
//
// Chan et al. chirp into the ear and classify the *whole received signal's*
// spectral dip shape with a logistic classifier. Crucially there is no
// fine-grained echo segmentation and no MFCC/selection stage (the paper's
// §I critique: "they did not perform fine-grained segmentation and analysis
// on the signal, so the detection accuracy did not exceed 85%").
//
// The probe design is stated once, in ChanConfig::chirp (audio::FmcwConfig):
// its band is the band the features read.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "audio/chirp.hpp"
#include "audio/waveform.hpp"
#include "ml/logistic.hpp"
#include "ml/scaler.hpp"

namespace earsonar::baseline {

struct ChanConfig {
  audio::FmcwConfig chirp;        ///< probe design; its band is the analysis
                                  ///< band and its spectrum the transmit
                                  ///< reference the PSD is divided by
  std::size_t coarse_bands = 8;   ///< spectral resolution of the features
  std::size_t welch_segment = 256;
  std::size_t classes = 4;
  ml::LogisticConfig logistic{};
};

class ChanDetector {
 public:
  explicit ChanDetector(ChanConfig config = {});

  /// Coarse spectral features of the unsegmented recording: log powers of
  /// `coarse_bands` equal sub-bands of the whole-signal Welch PSD, plus dip
  /// frequency and depth. Dimension = coarse_bands + 2.
  [[nodiscard]] std::vector<double> extract_features(
      const audio::Waveform& recording) const;

  /// Supervised training on labeled recordings.
  void fit(const std::vector<audio::Waveform>& recordings,
           const std::vector<std::size_t>& labels);

  /// Training on precomputed features.
  void fit_features(const ml::Matrix& features, const std::vector<std::size_t>& labels);

  [[nodiscard]] std::size_t predict(const audio::Waveform& recording) const;
  [[nodiscard]] std::size_t predict_features(const std::vector<double>& features) const;

  [[nodiscard]] bool fitted() const { return model_.fitted(); }
  [[nodiscard]] std::size_t feature_dimension() const { return config_.coarse_bands + 2; }
  [[nodiscard]] const ChanConfig& config() const { return config_; }

 private:
  ChanConfig config_;
  std::vector<double> reference_band_psd_;  ///< template-train Welch band PSD
  std::vector<double> reference_freqs_;
  ml::StandardScaler scaler_;
  ml::LogisticRegression model_;
};

}  // namespace earsonar::baseline
