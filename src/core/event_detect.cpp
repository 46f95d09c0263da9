#include "core/event_detect.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "common/error.hpp"
#include "common/stats.hpp"
#include "dsp/envelope.hpp"

namespace earsonar::core {

namespace {

// From env[i] on, tracks Eq. 6's noise-floor estimates mu and sigma until a
// sample opens an event (above mu + k * sigma and above the global mean
// power); returns that sample's index, or env.size(). Out of line and
// call-free, so the two serial EMA chains stay in registers: inlined into
// the detector's loop, which gates and stores events through calls, they
// were kept in memory and every sample paid a store-load round trip. mu and
// sigma are separate references, not one struct: a store pair to adjacent
// fields lets the compiler pack both chains into one vector register, and
// the packed chain waits on sigma's longer input path every sample.
[[gnu::noinline]] std::size_t track_until_open(std::span<const double> env, std::size_t i,
                                               double alpha, double k, double global_mean,
                                               double& mu_io, double& sigma_io) {
  double mu = mu_io;
  double sigma = sigma_io;
  for (; i < env.size(); ++i) {
    const double e = env[i];
    if (e > mu + k * sigma && e > global_mean) break;
    // Track the noise floor only outside events, so the event's own energy
    // cannot inflate the threshold (Eq. 6's sliding update).
    const double dev = std::abs(e - mu);
    mu = alpha * e + (1.0 - alpha) * mu;
    sigma = alpha * dev + (1.0 - alpha) * sigma;
  }
  mu_io = mu;
  sigma_io = sigma;
  return i;
}

}  // namespace

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
  // cycle, so thresholds act on the smoothed envelope. One fold over x
  // (dsp::EnvelopeFold) yields the envelope, the global power sum and the
  // median bracket's histogram. Reused per-thread row: a whole-recording
  // envelope is ~400 KB, and a fresh allocation pays mmap + page-fault cost
  // every call.
  thread_local std::vector<double> envelope;
  envelope.resize(n);
  dsp::EnvelopeFold fold(std::min(config_.smooth, n), envelope.data());
  fold.fold(x.data(), n);
  return scan(fold);
}

std::vector<Event> AdaptiveEventDetector::detect(dsp::EnvelopeFold& fold) const {
  require(fold.smooth == config_.smooth && fold.count >= fold.smooth,
          "AdaptiveEventDetector::detect: fold does not match the detector");
  return scan(fold);
}

std::vector<Event> AdaptiveEventDetector::scan(dsp::EnvelopeFold& fold) const {
  fold.close();
  const std::size_t n = fold.count;
  const std::size_t half = fold.smooth / 2;
  const double* env = fold.row;
  // Global mean power: the closing threshold mu-bar of Eq. 6-7.
  const double global_mean = fold.sum / static_cast<double>(n);

  // Robust noise-floor gate: peak >= floor_prominence * max(median, 1e-30).
  // Only a peak near that threshold needs the exact median. The histogram
  // brackets the median within an octave, and rounding is monotone, so the
  // threshold lies in [at_lo, at_hi] (the bracket's subnormal caveat sits far
  // below the 1e-30 floor): a peak outside that range is decided by the
  // bracket, and the exact median is computed (once) only for a peak inside
  // it.
  const MedianBracket bracket = fold.histogram.bracket();
  const double fp = config_.floor_prominence;
  const double at_lo = fp * std::max(bracket.lo, 1e-30);
  const double at_hi = fp * std::max(bracket.hi, 1e-30);
  double exact_threshold = 0.0;
  bool have_exact = false;
  const auto above_floor = [&](double peak) {
    if (bracket.finite && peak >= at_hi) return true;
    if (bracket.finite && peak < at_lo) return false;
    if (!have_exact) {
      exact_threshold = fp * std::max(median({env, n}), 1e-30);
      have_exact = true;
    }
    return peak >= exact_threshold;
  };

  // Running exponential estimates mu(i), sigma(i) with 1/W weighting (Eq. 6).
  // They adapt to the noise floor between events, so an arriving chirp pops
  // far above mu + k*sigma. Inside an event the scan keeps its running peak
  // envelope (from 0.0, as a scan of [start, end) would) until the event is
  // too long, quiet again, or reaches the last sample.
  const double alpha = 1.0 / static_cast<double>(config_.window);
  double mu = env[0];
  double sigma = 0.0;
  std::vector<Event> events;
  std::size_t i = 0;
  while (true) {
    const std::size_t start =
        track_until_open({env, n}, i, alpha, config_.start_threshold_k, global_mean, mu, sigma);
    if (start + 1 >= n) break;  // none opened, or one on the last sample: never closes
    double peak_env = std::max(0.0, env[start]);
    for (i = start + 1;; ++i) {
      peak_env = std::max(peak_env, env[i]);
      // |X(i)|^2 < mu-bar closes the event.
      if (i - start >= config_.max_length || env[i] < global_mean || i + 1 == n) break;
    }
    const Event current{start, i + 1};
    i = current.end;
    // Length and prominence gates: real chirp events tower over the
    // recording's mean power; noise wiggles do not.
    if (current.length() >= config_.min_length &&
        peak_env >= config_.prominence * global_mean && above_floor(peak_env))
      events.push_back(current);
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
