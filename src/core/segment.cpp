#include "core/segment.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/stats.hpp"
#include "common/units.hpp"
#include "dsp/convolution.hpp"

namespace earsonar::core {

void SegmenterConfig::validate() const {
  require(min_support >= 4, "SegmenterConfig: min_support must be >= 4");
  require(parity_threshold > 0.5 && parity_threshold < 1.0,
          "SegmenterConfig: parity_threshold must be in (0.5, 1)");
  require(min_distance_m > 0.0 && min_distance_m < max_distance_m,
          "SegmenterConfig: need 0 < min_distance < max_distance");
}

ParityEchoSegmenter::ParityEchoSegmenter(SegmenterConfig config,
                                         const audio::FmcwConfig& probe)
    : config_(config), probe_(probe) {
  config_.validate();
}

ParityEnergies parity_energies(std::span<const double> x, double n0) {
  require_nonempty("parity input", x.size());
  // xe[n] = (x[n] + x[2*n0 - n]) / 2, xo[n] = (x[n] - x[2*n0 - n]) / 2,
  // with zero extension outside the support.
  const auto at = [&](double idx) -> double {
    // 2*n0 is integral, so mirrored indices stay integral when idx is.
    if (idx < 0.0 || idx > static_cast<double>(x.size() - 1)) return 0.0;
    return x[static_cast<std::size_t>(idx)];
  };
  ParityEnergies energies;
  for (std::size_t n = 0; n < x.size(); ++n) {
    const double mirrored = at(2.0 * n0 - static_cast<double>(n));
    const double xe = 0.5 * (x[n] + mirrored);
    const double xo = 0.5 * (x[n] - mirrored);
    energies.even += xe * xe;
    energies.odd += xo * xo;
  }
  return energies;
}

namespace {

// Parity candidates among lags m in [first, last) of x's auto-convolution,
// appended in lag order; ac holds lags [first - 1, last + 1), so every lag
// has both neighbours (1 <= first, last <= 2 * x.size() - 2).
void collect_candidates(std::span<const double> x, std::span<const double> ac,
                        std::size_t first, std::size_t last, const SegmenterConfig& config,
                        std::vector<SymmetryCandidate>& out) {
  const std::size_t support = config.min_support;
  const std::size_t half = support / 2;

  for (std::size_t m = first; m < last; ++m) {
    // Step 1: local maxima of |(x*x)[m]| are candidate symmetry points at
    // n0 = m / 2.
    const double mag = std::abs(ac[m - first + 1]);
    if (!(mag >= std::abs(ac[m - first]) && mag >= std::abs(ac[m - first + 2]))) continue;
    const double n0 = static_cast<double>(m) / 2.0;
    if (n0 < static_cast<double>(half) ||
        n0 > static_cast<double>(x.size() - 1) - static_cast<double>(half))
      continue;

    // Step 2: parity-energy validation on a fixed-length subsequence y
    // centered at the candidate.
    const std::size_t y_start = static_cast<std::size_t>(std::floor(n0)) - half;
    const std::size_t y_len = std::min(support, x.size() - y_start);
    std::span<const double> y = x.subspan(y_start, y_len);
    const double local_center = n0 - static_cast<double>(y_start);
    const ParityEnergies pe = parity_energies(y, local_center);
    const double total = pe.even + pe.odd;
    if (total <= 0.0) continue;
    const double ratio = std::max(pe.even, pe.odd) / total;
    if (ratio < config.parity_threshold) continue;

    SymmetryCandidate cand;
    cand.center = n0;
    cand.parity_ratio = ratio;
    cand.energy = total;
    out.push_back(cand);
  }
}

}  // namespace

std::vector<SymmetryCandidate> ParityEchoSegmenter::candidates(
    std::span<const double> x) const {
  std::vector<SymmetryCandidate> out;
  if (x.size() < config_.min_support) return out;
  collect_candidates(x, dsp::autoconvolve(x), 1, 2 * x.size() - 2, config_, out);
  return out;
}

std::optional<EchoSegment> ParityEchoSegmenter::segment(const audio::Waveform& signal,
                                                        const Event& event) const {
  require(event.end <= signal.size() && event.start < event.end,
          "segment: event outside signal");
  const std::span<const double> x =
      std::span<const double>(signal.samples()).subspan(event.start, event.length());

  const double fs = signal.sample_rate();
  const double min_offset = echo_delay_seconds(config_.min_distance_m) * fs;
  const double max_offset = echo_delay_seconds(config_.max_distance_m) * fs;
  if (static_cast<double>(x.size()) < min_offset + 4.0) return std::nullopt;

  // The direct (speaker-to-mic) pulse is too weak to locate by amplitude
  // behind the shadowed microphone, but its timing is known: the app emits
  // chirps on the interval grid, so the direct pulse of this event peaks T/2
  // after the nearest grid point.
  const double interval = probe_.interval_s * fs;
  const double grid_start =
      std::round(static_cast<double>(event.start) / interval) * interval;
  const std::ptrdiff_t direct_abs = static_cast<std::ptrdiff_t>(
      std::lround(grid_start + probe_.duration_s * fs / 2.0));
  const std::ptrdiff_t direct_rel =
      direct_abs - static_cast<std::ptrdiff_t>(event.start);
  // Clamp into the event (a grossly off-grid event falls back gracefully).
  const std::size_t direct_peak = static_cast<std::size_t>(
      std::clamp<std::ptrdiff_t>(direct_rel, 0,
                                 static_cast<std::ptrdiff_t>(x.size()) - 1));

  // Only candidates at lag m = 2 * n0 with offset n0 - direct_peak in
  // [min_offset, max_offset] can win, about a dozen lags behind the direct
  // pulse; auto-convolve just those (plus a lag of slack on either side) and
  // keep the exact offset test below for the decision.
  std::vector<SymmetryCandidate> in_window;
  if (x.size() >= config_.min_support) {
    const double dp = static_cast<double>(direct_peak);
    const double lag_lo = std::floor(2.0 * (dp + min_offset)) - 1.0;
    const double lag_hi = std::ceil(2.0 * (dp + max_offset)) + 2.0;
    const auto lag_limit = static_cast<double>(2 * x.size() - 2);
    const auto first = static_cast<std::size_t>(std::clamp(lag_lo, 1.0, lag_limit));
    const auto last = static_cast<std::size_t>(std::clamp(lag_hi, 1.0, lag_limit));
    if (first < last)
      collect_candidates(x, dsp::autoconvolve_range(x, first - 1, last + 1), first, last,
                         config_, in_window);
  }

  EchoSegment best;
  bool found = false;
  double best_score = 0.0;
  for (const SymmetryCandidate& cand : in_window) {
    const double offset = cand.center - static_cast<double>(direct_peak);
    if (offset < min_offset || offset > max_offset) continue;
    // Rank qualifying candidates by parity quality weighted by energy: the
    // paper asks for (i) a high energy ratio and (ii) a plausible distance.
    const double score = cand.parity_ratio * std::sqrt(cand.energy);
    if (score > best_score) {
      best_score = score;
      best.event_start = event.start;
      best.peak_index = event.start + static_cast<std::size_t>(std::lround(cand.center));
      best.direct_peak_index = event.start + direct_peak;
      best.distance_m = samples_to_distance_m(offset, fs);
      best.parity_ratio = cand.parity_ratio;
      best.from_fallback = false;
      found = true;
    }
  }

  if (!found) {
    // Fallback: the anatomy prior alone — strongest sample in the plausible
    // echo window behind the direct pulse.
    const std::size_t lo = direct_peak + static_cast<std::size_t>(std::lround(min_offset));
    const std::size_t hi = std::min(
        x.size(), direct_peak + static_cast<std::size_t>(std::lround(max_offset)) + 1);
    if (lo + 1 >= hi) return std::nullopt;
    std::size_t peak = lo;
    for (std::size_t i = lo; i < hi; ++i)
      if (std::abs(x[i]) > std::abs(x[peak])) peak = i;
    best.event_start = event.start;
    best.peak_index = event.start + peak;
    best.direct_peak_index = event.start + direct_peak;
    best.distance_m =
        samples_to_distance_m(static_cast<double>(peak - direct_peak), fs);
    best.parity_ratio = 0.0;
    best.from_fallback = true;
  }
  return best;
}

void reanchor_echoes(std::vector<EchoSegment>& echoes, double sample_rate) {
  if (echoes.size() < 3) return;
  std::vector<double> offsets;
  offsets.reserve(echoes.size());
  for (const EchoSegment& e : echoes)
    offsets.push_back(static_cast<double>(e.peak_index) -
                      static_cast<double>(e.direct_peak_index));
  const double consensus = median(offsets);
  const auto offset = static_cast<std::ptrdiff_t>(std::lround(consensus));
  for (EchoSegment& e : echoes) {
    e.peak_index = static_cast<std::size_t>(
        static_cast<std::ptrdiff_t>(e.direct_peak_index) + offset);
    e.distance_m = samples_to_distance_m(consensus, sample_rate);
  }
}

}  // namespace earsonar::core
