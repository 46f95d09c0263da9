#include "baseline/chan.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "dsp/spectrum.hpp"

namespace earsonar::baseline {

ChanDetector::ChanDetector(ChanConfig config)
    : config_(config), model_([&] {
        ml::LogisticConfig lc = config.logistic;
        lc.classes = config.classes;
        return lc;
      }()) {
  require(config_.coarse_bands >= 2, "ChanConfig: need >= 2 coarse bands");
  require(config_.welch_segment >= 16, "ChanConfig: welch_segment too small");

  // Transmit reference: the Welch band PSD of a clean chirp train with the
  // recording's duty cycle. Dividing by it turns the received PSD into the
  // channel response the dip features read.
  const audio::Waveform tmpl = audio::make_chirp_train(config_.chirp, 8);
  const dsp::Spectrum psd =
      dsp::welch_psd(tmpl.view(), config_.chirp.sample_rate, config_.welch_segment);
  const dsp::Spectrum band =
      dsp::band_slice(psd, config_.chirp.start_hz, config_.chirp.end_hz());
  require(band.size() >= config_.coarse_bands, "ChanConfig: band too narrow");
  reference_band_psd_ = band.psd;
  reference_freqs_ = band.frequency_hz;
  double peak = 0.0;
  for (double v : reference_band_psd_) peak = std::max(peak, v);
  require(peak > 0.0, "ChanDetector: silent reference");
  for (double& v : reference_band_psd_) v = std::max(v, 1e-4 * peak);
}

std::vector<double> ChanDetector::extract_features(
    const audio::Waveform& recording) const {
  require_nonempty("ChanDetector recording", recording.size());
  require(recording.size() >= config_.welch_segment,
          "ChanDetector: recording shorter than a Welch segment");

  // Whole-signal PSD — direct leak, canal multipath, drum echo, and the
  // inter-chirp noise floor all mixed, which is exactly the baseline's
  // weakness: no event detection, no echo segmentation.
  const dsp::Spectrum psd =
      dsp::welch_psd(recording.view(), recording.sample_rate(), config_.welch_segment);
  const double band_low = config_.chirp.start_hz;
  const double band_high = config_.chirp.end_hz();
  dsp::Spectrum band = dsp::band_slice(psd, band_low, band_high);
  require(band.size() == reference_band_psd_.size(),
          "ChanDetector: recording sample rate does not match the probe design");
  for (std::size_t i = 0; i < band.size(); ++i) band.psd[i] /= reference_band_psd_[i];


  std::vector<double> features;
  features.reserve(feature_dimension());
  for (std::size_t b = 0; b < config_.coarse_bands; ++b) {
    const std::size_t lo = b * band.size() / config_.coarse_bands;
    const std::size_t hi =
        std::max(lo + 1, (b + 1) * band.size() / config_.coarse_bands);
    double acc = 0.0;
    for (std::size_t i = lo; i < hi && i < band.size(); ++i) acc += band.psd[i];
    features.push_back(std::log(std::max(acc, 1e-12)));
  }

  const dsp::SpectralDip dip = dsp::find_dip(band, band_low, band_high);
  const double span = band_high - band_low;
  features.push_back(dip.frequency_hz > 0.0 ? (dip.frequency_hz - band_low) / span : 0.5);
  features.push_back(dip.depth);
  return features;
}

void ChanDetector::fit(const std::vector<audio::Waveform>& recordings,
                       const std::vector<std::size_t>& labels) {
  require(recordings.size() == labels.size(), "ChanDetector::fit: size mismatch");
  ml::Matrix features;
  features.reserve(recordings.size());
  for (const audio::Waveform& rec : recordings) features.push_back(extract_features(rec));
  fit_features(features, labels);
}

void ChanDetector::fit_features(const ml::Matrix& features,
                                const std::vector<std::size_t>& labels) {
  scaler_.fit(features);
  model_.fit(scaler_.transform(features), labels);
}

std::size_t ChanDetector::predict(const audio::Waveform& recording) const {
  return predict_features(extract_features(recording));
}

std::size_t ChanDetector::predict_features(const std::vector<double>& features) const {
  require(fitted(), "ChanDetector: predict before fit");
  return model_.predict(scaler_.transform(features));
}

}  // namespace earsonar::baseline
