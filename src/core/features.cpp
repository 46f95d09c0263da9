#include "core/features.hpp"

#include <algorithm>
#include <cmath>
#include <span>
#include <string>
#include <utility>

#include "common/error.hpp"
#include "common/stats.hpp"
#include "dsp/dct.hpp"
#include "dsp/mel.hpp"

namespace earsonar::core {

// Triangular mel-spaced filters across [low, high] of an ascending band grid.
// Each triangle is zero outside [left, right], and on the ascending grid the
// bins in that span form one run, so each filter sums only its run, in bin
// order. The skipped terms are 0 * psd[b] = +0.0 for finite psd and leave the
// sum's bits unchanged. Every bin must still reach a filter, so that a NaN or
// infinite bin makes the coefficients non-finite: the runs keep their
// zero-weight end bins, and the first filter's run starts at bin 0 and the
// last one's ends at the last bin, because the mel round trip of the outer
// edges can land just inside the grid's end frequencies.
FeatureExtractor::MelWeights FeatureExtractor::MelWeights::build(
    const std::vector<double>& freq, std::size_t filter_count) {
  const double mel_lo = dsp::hz_to_mel(freq.front());
  const double mel_hi = dsp::hz_to_mel(freq.back());
  std::vector<double> edges(filter_count + 2);
  for (std::size_t i = 0; i < edges.size(); ++i)
    edges[i] = dsp::mel_to_hz(mel_lo + (mel_hi - mel_lo) * static_cast<double>(i) /
                                           static_cast<double>(edges.size() - 1));
  MelWeights m;
  m.first.resize(filter_count);
  m.offset.resize(filter_count + 1);
  std::size_t first = 0;
  for (std::size_t f = 0; f < filter_count; ++f) {
    const double left = edges[f], center = edges[f + 1], right = edges[f + 2];
    const bool last_filter = f + 1 == filter_count;
    while (f > 0 && first < freq.size() && freq[first] < left) ++first;
    m.first[f] = first;
    m.offset[f] = m.weight.size();
    for (std::size_t b = first; b < freq.size() && (last_filter || freq[b] <= right);
         ++b) {
      double w = 0.0;
      if (freq[b] > left && freq[b] < center) w = (freq[b] - left) / (center - left);
      else if (freq[b] >= center && freq[b] < right) w = (right - freq[b]) / (right - center);
      m.weight.push_back(w);
    }
  }
  m.offset[filter_count] = m.weight.size();
  return m;
}

std::vector<double> FeatureExtractor::MelWeights::mfcc(const double* psd,
                                                       std::size_t coefficients) const {
  std::vector<double> energies(first.size(), 0.0);
  for (std::size_t f = 0; f < first.size(); ++f) {
    const double* row = psd + first[f];
    for (std::size_t j = 0; j < offset[f + 1] - offset[f]; ++j)
      energies[f] += weight[offset[f] + j] * row[j];
    energies[f] = std::log(std::max(energies[f], 1e-12));
  }
  return dsp::dct2_truncated(energies, coefficients);
}

namespace {

// Least-squares slope of psd vs normalized frequency position.
double spectral_slope(const dsp::Spectrum& spectrum) {
  const std::size_t n = spectrum.size();
  double sx = 0.0, sy = 0.0, sxy = 0.0, sxx = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double x = static_cast<double>(i) / static_cast<double>(n - 1);
    sx += x;
    sy += spectrum.psd[i];
    sxy += x * spectrum.psd[i];
    sxx += x * x;
  }
  const double denom = static_cast<double>(n) * sxx - sx * sx;
  return denom > 0.0 ? (static_cast<double>(n) * sxy - sx * sy) / denom : 0.0;
}

// Frequency (normalized to [0,1] in-band) below which 85% of power lies.
double spectral_rolloff(const dsp::Spectrum& spectrum, double fraction = 0.85) {
  double total = 0.0;
  for (double v : spectrum.psd) total += v;
  if (total <= 0.0) return 0.0;
  double acc = 0.0;
  for (std::size_t i = 0; i < spectrum.size(); ++i) {
    acc += spectrum.psd[i];
    if (acc >= fraction * total)
      return static_cast<double>(i) / static_cast<double>(spectrum.size() - 1);
  }
  return 1.0;
}

}  // namespace

void FeatureConfig::validate() const {
  spectrum.validate();
  require(mfcc_coefficients >= 1 && mfcc_coefficients <= mfcc_filters,
          "FeatureConfig: mfcc_coefficients must be in [1, mfcc_filters]");
  require(time_groups >= 1, "FeatureConfig: need >= 1 time group");
  require(subband_powers >= 1, "FeatureConfig: need >= 1 subband");
  require(psd_samples >= 2, "FeatureConfig: need >= 2 psd samples");
}

FeatureExtractor::FeatureExtractor(FeatureConfig config, const audio::FmcwConfig& probe)
    : config_(config), extractor_(config.spectrum, probe) {
  config_.validate();
  if (config_.spectrum.band_bins >= config_.mfcc_filters)
    mel_ = MelWeights::build(extractor_.band_frequencies(), config_.mfcc_filters);
}

std::vector<double> FeatureExtractor::band_mfcc(const dsp::Spectrum& spectrum) const {
  require(spectrum.size() >= config_.mfcc_filters,
          "band_mfcc: spectrum grid coarser than the filterbank");
  return MelWeights::build(spectrum.frequency_hz, config_.mfcc_filters)
      .mfcc(spectrum.psd.data(), config_.mfcc_coefficients);
}

std::vector<double> FeatureExtractor::extract(
    const audio::Waveform& signal, const std::vector<EchoSegment>& echoes) const {
  return extract_full(signal, echoes).features;
}

FeatureExtractor::Result FeatureExtractor::extract_full(
    const audio::Waveform& signal, const std::vector<EchoSegment>& echoes) const {
  require_nonempty("FeatureExtractor echoes", echoes.size());

  // One window/FFT pass per echo; the group averages and the mean spectrum
  // below all reduce over these shared rows.
  const std::vector<double> rows = extractor_.extract_all(signal, echoes);
  return extract_full_from_rows(echoes.size(), rows);
}

FeatureExtractor::Result FeatureExtractor::extract_full_from_rows(
    std::size_t echoes, std::span<const double> rows) const {
  require_nonempty("FeatureExtractor echoes", echoes);
  const std::vector<double>& grid = extractor_.band_frequencies();
  const std::size_t bins = grid.size();
  require(rows.size() == echoes * bins, "extract_full_from_rows: one row per echo");
  require(!mel_.first.empty(), "band_mfcc: spectrum grid coarser than the filterbank");

  std::vector<double> features;
  features.reserve(dimension());

  // --- 1. MFCCs of early / middle / late chirp-group average spectra. The
  // groups capture slow within-recording drift (movement, contact changes).
  const std::size_t groups = config_.time_groups;
  std::vector<double> group_mean(bins);
  for (std::size_t g = 0; g < groups; ++g) {
    const std::size_t lo = g * echoes / groups;
    std::size_t hi = (g + 1) * echoes / groups;
    if (hi <= lo) hi = std::min(lo + 1, echoes);
    extractor_.mean_rows(rows.data() + lo * bins, hi - lo, group_mean.data());
    const std::vector<double> mfcc = mel_.mfcc(group_mean.data(), config_.mfcc_coefficients);
    features.insert(features.end(), mfcc.begin(), mfcc.end());
  }

  // Whole-recording mean spectrum drives the remaining features. The
  // absolute level carries the absorbed-energy measurement; a peak-normalized
  // copy carries the band shape.
  dsp::Spectrum mean_spec;
  mean_spec.frequency_hz = grid;
  mean_spec.psd.resize(bins);
  extractor_.mean_rows(rows.data(), echoes, mean_spec.psd.data());
  const dsp::Spectrum shape = dsp::normalize_peak(mean_spec);

  // --- 2. Log sub-band powers (absolute: the absorption level).
  const std::size_t bands = config_.subband_powers;
  for (std::size_t b = 0; b < bands; ++b) {
    const std::size_t lo = b * mean_spec.size() / bands;
    const std::size_t hi = std::max(lo + 1, (b + 1) * mean_spec.size() / bands);
    double acc = 0.0;
    for (std::size_t i = lo; i < hi && i < mean_spec.size(); ++i) acc += mean_spec.psd[i];
    features.push_back(std::log(std::max(acc, 1e-12)));
  }

  // --- 3. Uniform samples of the normalized PSD curve (the band shape).
  for (std::size_t s = 0; s < config_.psd_samples; ++s) {
    const std::size_t idx =
        s * (shape.size() - 1) / std::max<std::size_t>(1, config_.psd_samples - 1);
    features.push_back(shape.psd[idx]);
  }

  // --- 4. Spectral-shape features.
  const double band_low = extractor_.probe().start_hz;
  const double band_high = extractor_.probe().end_hz();
  const dsp::SpectralDip dip = dsp::find_dip(shape, band_low, band_high);
  const double band_span = band_high - band_low;
  features.push_back(dip.frequency_hz > 0.0 ? (dip.frequency_hz - band_low) / band_span
                                            : 0.5);
  features.push_back(dip.depth);
  features.push_back((dsp::spectral_centroid(shape) - band_low) / band_span);
  const double mid = 0.5 * (band_low + band_high);
  const double low_power = dsp::band_power(shape, band_low, mid);
  const double high_power = dsp::band_power(shape, mid, band_high);
  features.push_back(low_power / std::max(high_power, 1e-12));
  features.push_back(spectral_slope(shape));
  features.push_back(spectral_rolloff(shape));

  // --- 5. Summary statistics of the PSD (paper's "statistic features").
  // Computed on the absolute spectrum: its mean/extrema measure absorbed
  // energy, exactly the paper's observable.
  const SummaryStats stats = summarize(mean_spec.psd);
  features.push_back(stats.mean);
  features.push_back(stats.stddev);
  features.push_back(stats.min);
  features.push_back(stats.max);
  features.push_back(stats.skewness);
  features.push_back(stats.kurtosis_excess);

  ensure(features.size() == dimension(), "FeatureExtractor: layout drift");
  return {std::move(features), std::move(mean_spec)};
}

std::string feature_name(const FeatureConfig& config, std::size_t index) {
  require(index < config.dimension(), "feature_name: index out of range");
  std::size_t cursor = index;
  const std::size_t mfcc_total = config.time_groups * config.mfcc_coefficients;
  if (cursor < mfcc_total) {
    const std::size_t group = cursor / config.mfcc_coefficients;
    const std::size_t coeff = cursor % config.mfcc_coefficients;
    return "mfcc[g" + std::to_string(group) + "][" + std::to_string(coeff) + "]";
  }
  cursor -= mfcc_total;
  if (cursor < config.subband_powers) return "subband_log_power[" + std::to_string(cursor) + "]";
  cursor -= config.subband_powers;
  if (cursor < config.psd_samples) return "psd_sample[" + std::to_string(cursor) + "]";
  cursor -= config.psd_samples;
  static const char* kShape[] = {"dip_frequency", "dip_depth",      "centroid",
                                 "band_ratio",    "spectral_slope", "rolloff"};
  if (cursor < 6) return kShape[cursor];
  cursor -= 6;
  static const char* kStats[] = {"mean", "stddev", "min", "max", "skewness", "kurtosis"};
  return kStats[cursor];
}

}  // namespace earsonar::core
