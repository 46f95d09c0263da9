#include "core/event_detect.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/stats.hpp"

namespace earsonar::core {

void EventDetectorConfig::validate() const {
  require(window >= 4, "EventDetectorConfig: window must be >= 4");
  require(smooth >= 2 && smooth <= window,
          "EventDetectorConfig: smooth must be in [2, window]");
  require(start_threshold_k > 0.0, "EventDetectorConfig: threshold must be > 0");
  require(prominence >= 1.0, "EventDetectorConfig: prominence must be >= 1");
  require(floor_prominence >= 1.0,
          "EventDetectorConfig: floor_prominence must be >= 1");
  require(min_length >= 1, "EventDetectorConfig: min_length must be >= 1");
  require(max_length > min_length, "EventDetectorConfig: max_length must exceed min");
}

AdaptiveEventDetector::AdaptiveEventDetector(EventDetectorConfig config)
    : config_(config) {
  config_.validate();
}

std::vector<Event> AdaptiveEventDetector::detect(const audio::Waveform& signal) const {
  require_nonempty("event detection input", signal.size());
  const std::vector<double>& x = signal.samples();
  const std::size_t n = x.size();

  // Instantaneous power and its centered moving average A(i) over `smooth`
  // samples: the oscillating carrier makes raw |X(i)|^2 cross zero every half
  // cycle, so thresholds act on the smoothed envelope. One fused pass — the
  // power term leaving the moving window is recomputed from x (bit-identical
  // to re-reading it) so no per-sample power array is materialized, and the
  // global-mean accumulation rides along in its own accumulator, in the same
  // element order as a separate loop.
  const std::size_t s = std::min(config_.smooth, n);
  const std::size_t half = s / 2;
  // Reused per-thread buffer: a whole-recording envelope is ~400 KB, and a
  // fresh allocation pays mmap + page-fault cost every call. The fused pass
  // below writes every center in [0, n - half); only the last `half` centers
  // never receive a completed moving average and must be zeroed explicitly.
  thread_local std::vector<double> envelope;
  envelope.resize(n);
  std::fill(envelope.end() - static_cast<std::ptrdiff_t>(half), envelope.end(), 0.0);
  double run = 0.0;
  double global_mean = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double p = x[i] * x[i];
    global_mean += p;
    run += p;
    if (i >= s) run -= x[i - s] * x[i - s];
    const std::size_t count = std::min(i + 1, s);
    const std::size_t center = i >= half ? i - half : 0;
    envelope[center] = run / static_cast<double>(count);
  }

  // Global mean power: the closing threshold mu-bar of Eq. 6-7.
  global_mean /= static_cast<double>(n);

  // Robust noise-floor gate: peak >= floor_prominence * max(median, 1e-30).
  // Only a peak near that threshold needs the exact median. One counting
  // pass brackets the median within an octave, and rounding is monotone, so
  // the threshold lies in [at_lo, at_hi] (the bracket's subnormal caveat
  // sits far below the 1e-30 floor): a peak outside that range is decided
  // by the bracket, and the exact median is computed (once) only for a peak
  // inside it.
  const MedianBracket bracket = median_bracket(envelope);
  const double fp = config_.floor_prominence;
  const double at_lo = fp * std::max(bracket.lo, 1e-30);
  const double at_hi = fp * std::max(bracket.hi, 1e-30);
  double exact_threshold = 0.0;
  bool have_exact = false;
  const auto above_floor = [&](double peak) {
    if (bracket.finite && peak >= at_hi) return true;
    if (bracket.finite && peak < at_lo) return false;
    if (!have_exact) {
      exact_threshold = fp * std::max(median(envelope), 1e-30);
      have_exact = true;
    }
    return peak >= exact_threshold;
  };

  // Running exponential estimates mu(i), sigma(i) with 1/W weighting (Eq. 6).
  // They adapt to the noise floor between events, so an arriving chirp pops
  // far above mu + k*sigma.
  const double alpha = 1.0 / static_cast<double>(config_.window);
  double mu = envelope[0];
  double sigma = 0.0;

  std::vector<Event> events;
  bool in_event = false;
  Event current;
  for (std::size_t i = 0; i < n; ++i) {
    const double e = envelope[i];
    if (!in_event) {
      if (e > mu + config_.start_threshold_k * sigma && e > global_mean) {
        in_event = true;
        current.start = i;
      } else {
        // Track the noise floor only outside events, so the event's own
        // energy cannot inflate the threshold (Eq. 6's sliding update).
        const double dev = std::abs(e - mu);
        mu = alpha * e + (1.0 - alpha) * mu;
        sigma = alpha * dev + (1.0 - alpha) * sigma;
      }
    } else {
      const bool too_long = i - current.start >= config_.max_length;
      const bool quiet = e < global_mean;  // |X(i)|^2 < mu-bar closes the event
      if (too_long || quiet || i + 1 == n) {
        current.end = i + 1;
        in_event = false;
        // Length and prominence gates: real chirp events tower over the
        // recording's mean power; noise wiggles do not.
        double peak_env = 0.0;
        for (std::size_t j = current.start; j < current.end; ++j)
          peak_env = std::max(peak_env, envelope[j]);
        if (current.length() >= config_.min_length &&
            peak_env >= config_.prominence * global_mean &&
            above_floor(peak_env))
          events.push_back(current);
      }
    }
  }

  // Expand by the smoothing half-width (the envelope blurs edges by ~half),
  // then merge events separated by less than merge_gap.
  std::vector<Event> merged;
  for (Event e : events) {
    e.start = e.start > half ? e.start - half : 0;
    e.end = std::min(n, e.end + half);
    if (!merged.empty() && e.start < merged.back().end + config_.merge_gap &&
        e.end - merged.back().start <= config_.max_length) {
      merged.back().end = std::max(merged.back().end, e.end);
    } else {
      merged.push_back(e);
    }
  }
  return merged;
}

std::size_t aligned_event_start(std::span<const double> signal, const Event& event) {
  require(event.start < event.end && event.end <= signal.size(),
          "aligned_event_start: event outside signal");
  constexpr std::size_t kSmooth = 4;
  constexpr double kOnsetFraction = 0.1;
  double peak = 0.0;
  for (std::size_t i = event.start; i < event.end; ++i)
    peak = std::max(peak, std::abs(signal[i]));
  if (peak <= 0.0) return event.start;
  double run = 0.0;
  for (std::size_t i = event.start; i < event.end; ++i) {
    run += std::abs(signal[i]);
    if (i >= event.start + kSmooth) run -= std::abs(signal[i - kSmooth]);
    const double env = run / static_cast<double>(std::min(i - event.start + 1, kSmooth));
    if (env >= kOnsetFraction * peak)
      return i > event.start + 2 ? i - 2 : event.start;
  }
  return event.start;
}

}  // namespace earsonar::core
