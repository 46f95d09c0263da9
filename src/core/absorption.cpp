#include "core/absorption.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/stats.hpp"
#include "dsp/fft.hpp"
#include "dsp/fft_plan.hpp"

namespace earsonar::core {

namespace {

// Reused per-thread buffers for window_psd: the absorption stage runs one
// window/FFT per chirp (hundreds per recording), so the steady state must
// not allocate. The frequency axis, the FFT plan, and the band-resample
// interpolation weights are cached against the sample rate — every echo of
// a recording shares them.
struct WindowPsdScratch {
  dsp::FftScratch fft;
  std::vector<double> dense;   ///< zero-padded FFT input
  dsp::Spectrum full;          ///< full-resolution PSD
  double axis_fs = 0.0;        ///< sample rate the cached axis was built at
  std::shared_ptr<const dsp::FftPlan> plan;  ///< plan for the cached fft_size
  std::size_t plan_n = 0;
  // Band-resample cache: per output bin, the bracketing source bin and the
  // interpolation fraction (hi == lo marks an end-clamped bin), mirroring
  // dsp::resample_spectrum's cursor sweep. Rebuilt with the axis.
  std::vector<std::size_t> rs_lo, rs_hi;
  std::vector<double> rs_t;
  dsp::Spectrum band_grid;     ///< target frequency grid (psd unused)
  std::size_t band_klo = 0, band_khi = 0;  ///< source bins the band touches
  double cache_low = 0.0, cache_high = 0.0;  ///< band the cache was built for
  std::size_t cache_bins = 0;
  std::vector<double> dense4;  ///< batched path: four FFT inputs side by side
  std::vector<double> psd4;    ///< batched path: four full-resolution PSDs
};

WindowPsdScratch& window_psd_scratch() {
  thread_local WindowPsdScratch scratch;
  return scratch;
}

// Precomputes the dsp::resample_spectrum interpolation geometry for one
// (source axis, band, bins) combination, with the identical index and
// fraction arithmetic, so the per-echo resample is a weighted gather that
// reproduces the general routine bit for bit.
void build_resample_cache(WindowPsdScratch& s, double low_hz, double high_hz,
                          std::size_t bins) {
  const std::vector<double>& freq = s.full.frequency_hz;
  s.rs_lo.resize(bins);
  s.rs_hi.resize(bins);
  s.rs_t.assign(bins, 0.0);
  s.band_grid.frequency_hz.resize(bins);
  s.band_grid.psd.clear();
  std::size_t hi = 0;
  for (std::size_t i = 0; i < bins; ++i) {
    const double f = low_hz + (high_hz - low_hz) * static_cast<double>(i) /
                                  static_cast<double>(bins - 1);
    s.band_grid.frequency_hz[i] = f;
    if (f <= freq.front()) {
      s.rs_lo[i] = s.rs_hi[i] = 0;
    } else if (f >= freq.back()) {
      s.rs_lo[i] = s.rs_hi[i] = freq.size() - 1;
    } else {
      while (freq[hi] < f) ++hi;
      s.rs_lo[i] = hi - 1;
      s.rs_hi[i] = hi;
      s.rs_t[i] = (f - freq[hi - 1]) / (freq[hi] - freq[hi - 1]);
    }
  }
  s.band_klo = s.rs_lo.front();
  s.band_khi = s.rs_hi.front();
  for (std::size_t i = 0; i < bins; ++i) {
    s.band_klo = std::min(s.band_klo, s.rs_lo[i]);
    s.band_khi = std::max(s.band_khi, s.rs_hi[i]);
  }
}

// The cached-weight counterpart of dsp::resample_spectrum: same clamped
// linear interpolation, indices and fractions taken from the cache. `psd`
// points at the full-resolution bins (s.full.psd for the single path, one
// lane of the batched buffer otherwise).
dsp::Spectrum resample_with_cache(const WindowPsdScratch& s, const double* psd) {
  dsp::Spectrum out;
  out.frequency_hz = s.band_grid.frequency_hz;
  const std::size_t bins = out.frequency_hz.size();
  out.psd.resize(bins);
  for (std::size_t i = 0; i < bins; ++i) {
    const std::size_t lo = s.rs_lo[i], hi = s.rs_hi[i];
    out.psd[i] =
        lo == hi ? psd[lo] : psd[lo] * (1.0 - s.rs_t[i]) + psd[hi] * s.rs_t[i];
  }
  return out;
}

// Refreshes the cached plan, frequency axis, and band-resample weights for
// one sample rate; every echo of a recording shares them.
void ensure_psd_cache(WindowPsdScratch& s, const SpectrumConfig& config,
                      double fs) {
  if (s.plan_n != config.fft_size || !s.plan) {
    s.plan = dsp::FftPlan::get(config.fft_size, dsp::FftPlan::Kind::kReal);
    s.plan_n = config.fft_size;
  }
  s.full.psd.resize(s.plan->real_bins());
  const bool cache_stale = s.axis_fs != fs ||
                           s.full.frequency_hz.size() != s.full.psd.size() ||
                           s.cache_low != config.band_low_hz ||
                           s.cache_high != config.band_high_hz ||
                           s.cache_bins != config.band_bins;
  if (cache_stale) {
    s.full.frequency_hz.resize(s.full.psd.size());
    for (std::size_t i = 0; i < s.full.psd.size(); ++i)
      s.full.frequency_hz[i] = dsp::bin_frequency(i, config.fft_size, fs);
    s.axis_fs = fs;
    build_resample_cache(s, config.band_low_hz, config.band_high_hz,
                         config.band_bins);
    s.cache_low = config.band_low_hz;
    s.cache_high = config.band_high_hz;
    s.cache_bins = config.band_bins;
  }
}

// Window placement for one echo under the configured anchor — the switch
// from extract(), shared with the packed extract_all_multi path.
struct WindowGeometry {
  std::size_t center = 0, pre = 0, post = 0;
};

WindowGeometry window_geometry(const SpectrumConfig& c, const EchoSegment& e) {
  switch (c.anchor) {
    case WindowAnchor::kEventStart:
      return {e.event_start + c.event_window_length / 2, c.event_window_length / 2,
              c.event_window_length - c.event_window_length / 2};
    case WindowAnchor::kEchoPeak:
      return {e.peak_index, c.pre_peak, c.post_peak};
    case WindowAnchor::kDirectGate:
      return {e.direct_peak_index + c.gate_start + c.gate_length / 2,
              c.gate_length / 2, c.gate_length - c.gate_length / 2};
  }
  return {};
}

}  // namespace

void SpectrumConfig::validate() const {
  require(pre_peak >= 2, "SpectrumConfig: pre_peak must be >= 2");
  require(post_peak >= 8, "SpectrumConfig: post_peak must be >= 8");
  require(event_window_length >= 16,
          "SpectrumConfig: event_window_length must be >= 16");
  require(gate_start >= 1, "SpectrumConfig: gate_start must be >= 1");
  require(gate_length >= 8, "SpectrumConfig: gate_length must be >= 8");
  require(dsp::is_power_of_two(fft_size), "SpectrumConfig: fft_size must be 2^n");
  // Each anchor's window spans pre + post + 1 samples and is zero-padded to
  // fft_size, so every window must fit in one transform.
  require(event_window_length + 1 <= fft_size && pre_peak + post_peak + 1 <= fft_size &&
              gate_length + 1 <= fft_size,
          "SpectrumConfig: fft_size must hold every analysis window");
  require(band_low_hz > 0.0 && band_low_hz < band_high_hz,
          "SpectrumConfig: need 0 < low < high");
  require(band_bins >= 8, "SpectrumConfig: need >= 8 band bins");
}

EchoSpectrumExtractor::EchoSpectrumExtractor(SpectrumConfig config) : config_(config) {
  config_.validate();
}

void EchoSpectrumExtractor::set_reference(const audio::FmcwConfig& chirp) {
  // The clean chirp, padded into an event-length buffer at its natural
  // position and pushed through the identical window/FFT processing.
  const audio::Waveform pulse = audio::make_chirp(chirp);
  const std::size_t len =
      std::max({config_.event_window_length, config_.pre_peak + config_.post_peak,
                config_.gate_start + config_.gate_length}) +
      pulse.size() + 8;
  audio::Waveform padded = audio::Waveform::silence(len, chirp.sample_rate);
  padded.add_at(pulse, 0);
  switch (config_.anchor) {
    case WindowAnchor::kEventStart:
      reference_ = window_psd(padded, config_.event_window_length / 2,
                              config_.event_window_length / 2,
                              config_.event_window_length -
                                  config_.event_window_length / 2);
      break;
    case WindowAnchor::kEchoPeak: {
      // The clean pulse peaks mid-chirp; center the reference there.
      const std::size_t center = pulse.size() / 2;
      reference_ = window_psd(padded, center, config_.pre_peak, config_.post_peak);
      break;
    }
    case WindowAnchor::kDirectGate:
      // The gate excludes the pulse by construction; reference the full
      // pulse spectrum instead so the division still de-tilts the band.
      reference_ = window_psd(padded, pulse.size() / 2, config_.pre_peak,
                              config_.post_peak);
      break;
  }
  // Guard against divisions by near-zero edge bins.
  const double peak = max_value(reference_.psd);
  ensure(peak > 0.0, "set_reference: silent reference");
  for (double& v : reference_.psd) v = std::max(v, 1e-4 * peak);
}

dsp::Spectrum EchoSpectrumExtractor::window_psd(const audio::Waveform& signal,
                                                std::size_t center, std::size_t pre,
                                                std::size_t post) const {
  const double fs = signal.sample_rate();
  WindowPsdScratch& s = window_psd_scratch();

  // Fixed-length window zero-padded at the recording edges so every chirp
  // yields an identical analysis geometry; the raw window IS the FFT input
  // head.
  const std::size_t window_len = pre + post + 1;
  s.dense.assign(config_.fft_size, 0.0);
  for (std::size_t i = 0; i < window_len; ++i) {
    const std::ptrdiff_t idx = static_cast<std::ptrdiff_t>(center) -
                               static_cast<std::ptrdiff_t>(pre) +
                               static_cast<std::ptrdiff_t>(i);
    if (idx >= 0 && idx < static_cast<std::ptrdiff_t>(signal.size()))
      s.dense[i] = signal.samples()[static_cast<std::size_t>(idx)];
  }

  ensure_psd_cache(s, config_, fs);
  // The band resample only reads source bins [band_klo, band_khi]; computing
  // just those (identical arithmetic per computed bin) skips ~80% of the
  // untangle + |X|^2 work per chirp.
  s.plan->power_spectrum_band(s.dense, s.full.psd,
                              1.0 / static_cast<double>(config_.fft_size), s.fft,
                              s.band_klo, s.band_khi);
  return resample_with_cache(s, s.full.psd.data());
}

dsp::Spectrum EchoSpectrumExtractor::extract(const audio::Waveform& signal,
                                             const EchoSegment& echo) const {
  require(echo.peak_index < signal.size(), "extract: echo peak outside signal");
  const double fs = signal.sample_rate();
  require(config_.band_high_hz <= fs / 2.0, "extract: band exceeds Nyquist");

  const WindowGeometry g = window_geometry(config_, echo);
  return finalize(window_psd(signal, g.center, g.pre, g.post));
}

dsp::Spectrum EchoSpectrumExtractor::finalize(dsp::Spectrum spectrum) const {
  if (has_reference()) {
    for (std::size_t i = 0; i < spectrum.size(); ++i)
      spectrum.psd[i] /= reference_.psd[i];
  }
  return spectrum;
}

std::vector<dsp::Spectrum> EchoSpectrumExtractor::extract_all(
    const audio::Waveform& signal, const std::vector<EchoSegment>& echoes) const {
  const EchoBatch item{&signal, &echoes};
  return std::move(extract_all_multi({&item, 1}).front());
}

std::vector<std::vector<dsp::Spectrum>> EchoSpectrumExtractor::extract_all_multi(
    std::span<const EchoBatch> items) const {
  std::vector<std::vector<dsp::Spectrum>> out(items.size());
  std::size_t total = 0;
  double fs0 = 0.0;
  bool uniform_fs = true;
  for (const EchoBatch& item : items) {
    require(item.signal != nullptr && item.echoes != nullptr,
            "extract_all_multi: null item");
    total += item.echoes->size();
    if (fs0 == 0.0) fs0 = item.signal->sample_rate();
    uniform_fs = uniform_fs && item.signal->sample_rate() == fs0;
  }
  if (!uniform_fs) {
    for (std::size_t i = 0; i < items.size(); ++i)
      out[i] = extract_all(*items[i].signal, *items[i].echoes);
    return out;
  }

  // Flatten the (recording, echo) pairs in submission order; x4 groups then
  // slice the flat sequence, crossing recording boundaries where they fall.
  // The raw window IS the FFT input, so four windows pack side by side into
  // one four-lane band PSD (FftPlan::power_spectrum_band_x4); the ragged
  // tail fills the unused lanes with zeros and drops their output. Each lane
  // equals a single transform bitwise and finalize() is the shared per-echo
  // tail, so every spectrum matches extract() bit for bit.
  struct Slot {
    std::size_t item, echo;
  };
  std::vector<Slot> slots;
  slots.reserve(total);
  for (std::size_t i = 0; i < items.size(); ++i) {
    out[i].reserve(items[i].echoes->size());
    for (std::size_t e = 0; e < items[i].echoes->size(); ++e) slots.push_back({i, e});
  }
  if (slots.empty()) return out;

  require(config_.band_high_hz <= fs0 / 2.0, "extract: band exceeds Nyquist");
  WindowPsdScratch& s = window_psd_scratch();
  ensure_psd_cache(s, config_, fs0);
  const dsp::FftPlan& plan = *s.plan;
  const std::size_t bins = plan.real_bins();
  const double scale = 1.0 / static_cast<double>(config_.fft_size);
  s.dense4.assign(4 * config_.fft_size, 0.0);
  s.psd4.resize(4 * bins);
  for (std::size_t k = 0; k < slots.size(); k += 4) {
    const std::size_t lanes = std::min<std::size_t>(4, slots.size() - k);
    const double* in[4];
    double* psd[4];
    for (std::size_t l = 0; l < 4; ++l) {
      double* dense = s.dense4.data() + l * config_.fft_size;
      in[l] = dense;
      psd[l] = s.psd4.data() + l * bins;
      if (l >= lanes) {
        std::fill_n(dense, config_.fft_size, 0.0);
        continue;
      }
      const Slot& slot = slots[k + l];
      const audio::Waveform& signal = *items[slot.item].signal;
      const EchoSegment& echo = (*items[slot.item].echoes)[slot.echo];
      require(echo.peak_index < signal.size(), "extract: echo peak outside signal");
      const WindowGeometry g = window_geometry(config_, echo);
      const std::size_t window_len = g.pre + g.post + 1;
      // Only the window head is dirty from the previous group; the
      // zero-padded tail beyond window_len is never written.
      std::fill_n(dense, window_len, 0.0);
      const std::vector<double>& x = signal.samples();
      for (std::size_t j = 0; j < window_len; ++j) {
        const std::ptrdiff_t idx = static_cast<std::ptrdiff_t>(g.center) -
                                   static_cast<std::ptrdiff_t>(g.pre) +
                                   static_cast<std::ptrdiff_t>(j);
        if (idx >= 0 && idx < static_cast<std::ptrdiff_t>(signal.size()))
          dense[j] = x[static_cast<std::size_t>(idx)];
      }
    }
    plan.power_spectrum_band_x4(in, psd, scale, s.fft, s.band_klo, s.band_khi);
    for (std::size_t l = 0; l < lanes; ++l)
      out[slots[k + l].item].push_back(finalize(resample_with_cache(s, psd[l])));
  }
  return out;
}

dsp::Spectrum EchoSpectrumExtractor::average_of(
    std::span<const dsp::Spectrum> spectra) const {
  require_nonempty("average_of spectra", spectra.size());
  dsp::Spectrum acc = spectra.front();
  for (std::size_t s = 1; s < spectra.size(); ++s)
    for (std::size_t i = 0; i < acc.psd.size(); ++i) acc.psd[i] += spectra[s].psd[i];
  for (double& v : acc.psd) v /= static_cast<double>(spectra.size());
  return acc;
}

dsp::Spectrum EchoSpectrumExtractor::average(
    const audio::Waveform& signal, const std::vector<EchoSegment>& echoes) const {
  require_nonempty("average echoes", echoes.size());
  return average_of(extract_all(signal, echoes));
}

}  // namespace earsonar::core
