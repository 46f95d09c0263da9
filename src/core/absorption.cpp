#include "core/absorption.hpp"

#include <algorithm>
#include <memory>

#include "common/error.hpp"
#include "common/stats.hpp"
#include "dsp/band_psd.hpp"
#include "dsp/fft.hpp"

namespace earsonar::core {

namespace {

// Everything one (sample rate, fft size, window length, band) key shapes:
// the pruned band transform and the band-resample weights. Per output bin,
// the weights hold the bracketing source bins (relative to the transform's
// first bin; hi == lo marks an end-clamped bin) and the interpolation
// fraction, from dsp::resample_spectrum's cursor sweep with the identical
// index and fraction arithmetic, so the per-echo resample is a weighted
// gather that reproduces the general routine bit for bit.
struct PsdPlan {
  double fs = 0.0, low = 0.0, high = 0.0;
  std::size_t n = 0, window_len = 0, bins = 0;
  std::unique_ptr<const dsp::BandPsdPlan> transform;
  std::vector<std::size_t> rs_lo, rs_hi;
  std::vector<double> rs_t;

  [[nodiscard]] bool matches(const SpectrumConfig& c, const audio::FmcwConfig& probe,
                             std::size_t len, double rate) const {
    return fs == rate && n == c.fft_size && window_len == len && bins == c.band_bins &&
           low == probe.start_hz && high == probe.end_hz();
  }
};

PsdPlan build_psd_plan(const SpectrumConfig& c, const audio::FmcwConfig& probe,
                       std::size_t window_len, double fs, const std::vector<double>& grid) {
  PsdPlan plan;
  plan.fs = fs;
  plan.low = probe.start_hz;
  plan.high = probe.end_hz();
  plan.n = c.fft_size;
  plan.window_len = window_len;
  plan.bins = c.band_bins;
  std::vector<double> freq(c.fft_size / 2 + 1);
  for (std::size_t k = 0; k < freq.size(); ++k)
    freq[k] = dsp::bin_frequency(k, c.fft_size, fs);
  plan.rs_lo.resize(grid.size());
  plan.rs_hi.resize(grid.size());
  plan.rs_t.assign(grid.size(), 0.0);
  std::size_t hi = 0;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const double f = grid[i];
    if (f <= freq.front()) {
      plan.rs_lo[i] = plan.rs_hi[i] = 0;
    } else if (f >= freq.back()) {
      plan.rs_lo[i] = plan.rs_hi[i] = freq.size() - 1;
    } else {
      while (freq[hi] < f) ++hi;
      plan.rs_lo[i] = hi - 1;
      plan.rs_hi[i] = hi;
      plan.rs_t[i] = (f - freq[hi - 1]) / (freq[hi] - freq[hi - 1]);
    }
  }
  const std::size_t klo = *std::min_element(plan.rs_lo.begin(), plan.rs_lo.end());
  const std::size_t khi = *std::max_element(plan.rs_hi.begin(), plan.rs_hi.end());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    plan.rs_lo[i] -= klo;
    plan.rs_hi[i] -= klo;
  }
  plan.transform = std::make_unique<const dsp::BandPsdPlan>(c.fft_size, window_len, klo, khi);
  return plan;
}

// Reused per-thread state: the absorption stage runs one window transform
// per chirp, so the steady state must not allocate. A thread sees one or two
// plan keys (the echo windows and the reference window), so a short list
// searched in order is enough.
struct PsdScratch {
  std::vector<PsdPlan> plans;
  std::vector<double> work;  ///< transform buffer
  std::vector<double> psd4;  ///< four lanes of band bins, lane-major
  std::vector<double> edge;  ///< zero-filled copies of edge-crossing windows
  std::vector<double> spare;  ///< output row of a group's unused lanes

  const PsdPlan& plan(const SpectrumConfig& c, const audio::FmcwConfig& probe,
                      std::size_t window_len, double fs, const std::vector<double>& grid) {
    for (const PsdPlan& p : plans)
      if (p.matches(c, probe, window_len, fs)) return p;
    constexpr std::size_t kMaxPlans = 8;
    if (plans.size() == kMaxPlans) plans.erase(plans.begin());
    return plans.emplace_back(build_psd_plan(c, probe, window_len, fs, grid));
  }
};

PsdScratch& psd_scratch() {
  thread_local PsdScratch scratch;
  return scratch;
}

// Window placement for one echo under the configured anchor: the window is
// signal[center - pre, center + post].
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

std::ptrdiff_t window_start(const WindowGeometry& g) {
  return static_cast<std::ptrdiff_t>(g.center) - static_cast<std::ptrdiff_t>(g.pre);
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
  require(band_bins >= 8, "SpectrumConfig: need >= 8 band bins");
}

EchoSpectrumExtractor::EchoSpectrumExtractor(SpectrumConfig config,
                                             const audio::FmcwConfig& probe)
    : config_(config), probe_(probe) {
  config_.validate();
  const double low = probe_.start_hz;
  const double high = probe_.end_hz();
  grid_.resize(config_.band_bins);
  for (std::size_t i = 0; i < grid_.size(); ++i)
    grid_[i] = low + (high - low) * static_cast<double>(i) /
                         static_cast<double>(grid_.size() - 1);

  // The transmit reference: the clean chirp, padded into an event-length
  // buffer at its natural position and pushed through the identical
  // window/FFT processing.
  const audio::Waveform pulse = audio::make_chirp(probe_);
  const std::size_t len =
      std::max({config_.event_window_length, config_.pre_peak + config_.post_peak,
                config_.gate_start + config_.gate_length}) +
      pulse.size() + 8;
  audio::Waveform padded = audio::Waveform::silence(len, probe_.sample_rate);
  padded.add_at(pulse, 0);
  // kEventStart reads the event window from the pulse's first sample. The
  // clean pulse peaks mid-chirp, so kEchoPeak centers its window there; the
  // direct gate excludes the pulse by construction, so kDirectGate
  // references the same full-pulse window and the division still de-tilts
  // the band.
  const WindowGeometry g =
      config_.anchor == WindowAnchor::kEventStart
          ? window_geometry(config_, EchoSegment{})
          : WindowGeometry{pulse.size() / 2, config_.pre_peak, config_.post_peak};
  std::vector<double> row(config_.band_bins);
  const Window window{&padded, window_start(g), row.data()};
  run_windows({&window, 1}, g.pre + g.post + 1, padded.sample_rate(), nullptr);
  // Guard against divisions by near-zero edge bins.
  const double peak = max_value(row);
  ensure(peak > 0.0, "EchoSpectrumExtractor: silent reference");
  for (double& v : row) v = std::max(v, 1e-4 * peak);
  reference_ = std::move(row);
}

void EchoSpectrumExtractor::run_windows(std::span<const Window> windows,
                                        std::size_t window_len, double fs,
                                        const double* reference) const {
  PsdScratch& s = psd_scratch();
  const PsdPlan& plan = s.plan(config_, probe_, window_len, fs, grid_);
  const dsp::BandPsdPlan& transform = *plan.transform;
  const std::size_t bins = grid_.size();
  const double scale = 1.0 / static_cast<double>(config_.fft_size);
  s.psd4.resize(4 * transform.bins());
  s.edge.resize(4 * window_len);
  s.spare.resize(bins);
  const double* psd4 = s.psd4.data();
  for (std::size_t k = 0; k < windows.size(); k += 4) {
    const std::size_t lanes = std::min<std::size_t>(4, windows.size() - k);
    const double* in[4] = {};
    for (std::size_t l = 0; l < lanes; ++l) {
      const Window& w = windows[k + l];
      const std::vector<double>& x = w.signal->samples();
      const auto size = static_cast<std::ptrdiff_t>(x.size());
      if (w.start >= 0 && w.start + static_cast<std::ptrdiff_t>(window_len) <= size) {
        in[l] = x.data() + w.start;
        continue;
      }
      // Zero-padded at the recording edges, so every chirp yields an
      // identical analysis geometry.
      double* e = s.edge.data() + l * window_len;
      for (std::size_t j = 0; j < window_len; ++j) {
        const std::ptrdiff_t idx = w.start + static_cast<std::ptrdiff_t>(j);
        e[j] = idx >= 0 && idx < size ? x[static_cast<std::size_t>(idx)] : 0.0;
      }
      in[l] = e;
    }
    transform.execute_x4(in, s.psd4.data(), scale, s.work);
    // Band resample (dsp::resample_spectrum's clamped linear interpolation)
    // and the reference division, all four lanes of a bin at once; unused
    // lanes write to a spare row.
    double* rows[4];
    for (std::size_t l = 0; l < 4; ++l)
      rows[l] = l < lanes ? windows[k + l].row : s.spare.data();
    for (std::size_t i = 0; i < bins; ++i) {
      const double* a = psd4 + 4 * plan.rs_lo[i];
      const double* b = psd4 + 4 * plan.rs_hi[i];
      const double t = plan.rs_t[i];
      double v[4];
      if (plan.rs_lo[i] == plan.rs_hi[i]) {
        for (std::size_t l = 0; l < 4; ++l) v[l] = a[l];
      } else {
        for (std::size_t l = 0; l < 4; ++l) v[l] = a[l] * (1.0 - t) + b[l] * t;
      }
      if (reference)
        for (std::size_t l = 0; l < 4; ++l) v[l] /= reference[i];
      for (std::size_t l = 0; l < 4; ++l) rows[l][i] = v[l];
    }
  }
}

dsp::Spectrum EchoSpectrumExtractor::extract(const audio::Waveform& signal,
                                             const EchoSegment& echo) const {
  dsp::Spectrum out;
  out.frequency_hz = grid_;
  out.psd = extract_all(signal, {echo});
  return out;
}

std::vector<double> EchoSpectrumExtractor::extract_all(
    const audio::Waveform& signal, const std::vector<EchoSegment>& echoes) const {
  const std::size_t bins = grid_.size();
  std::vector<double> out(echoes.size() * bins);
  if (echoes.empty()) return out;
  require(probe_.end_hz() <= signal.sample_rate() / 2.0, "extract: band exceeds Nyquist");
  // Every anchor's window has one length under one config.
  std::vector<Window> windows;
  windows.reserve(echoes.size());
  std::size_t window_len = 0;
  for (std::size_t e = 0; e < echoes.size(); ++e) {
    require(echoes[e].peak_index < signal.size(), "extract: echo peak outside signal");
    const WindowGeometry g = window_geometry(config_, echoes[e]);
    window_len = g.pre + g.post + 1;
    windows.push_back({&signal, window_start(g), out.data() + e * bins});
  }
  run_windows(windows, window_len, signal.sample_rate(), reference_.data());
  return out;
}

void EchoSpectrumExtractor::mean_rows(const double* rows, std::size_t count,
                                      double* out) const {
  require_nonempty("mean_rows rows", count);
  const std::size_t bins = grid_.size();
  const auto divisor = static_cast<double>(count);
  // Four bins at a time in locals, rows in order: each bin's sum is the
  // same chain of adds as summing whole rows, with no stores to `out` (which
  // the compiler must assume may alias `rows`) inside the loop.
  std::size_t i = 0;
  for (; i + 4 <= bins; i += 4) {
    double acc[4] = {rows[i], rows[i + 1], rows[i + 2], rows[i + 3]};
    for (std::size_t s = 1; s < count; ++s)
      for (std::size_t j = 0; j < 4; ++j) acc[j] += rows[s * bins + i + j];
    for (std::size_t j = 0; j < 4; ++j) out[i + j] = acc[j] / divisor;
  }
  for (; i < bins; ++i) {
    double acc = rows[i];
    for (std::size_t s = 1; s < count; ++s) acc += rows[s * bins + i];
    out[i] = acc / divisor;
  }
}

dsp::Spectrum EchoSpectrumExtractor::average(
    const audio::Waveform& signal, const std::vector<EchoSegment>& echoes) const {
  require_nonempty("average echoes", echoes.size());
  const std::vector<double> rows = extract_all(signal, echoes);
  dsp::Spectrum out;
  out.frequency_hz = grid_;
  out.psd.resize(grid_.size());
  mean_rows(rows.data(), echoes.size(), out.psd.data());
  return out;
}

}  // namespace earsonar::core
