#include "common/stats.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>

#include "common/error.hpp"

namespace earsonar {

namespace {

// Central moment of the given order relative to the supplied mean.
double central_moment(std::span<const double> xs, double mu, int order) {
  double acc = 0.0;
  for (double x : xs) acc += std::pow(x - mu, order);
  return acc / static_cast<double>(xs.size());
}

// Maps a double to an unsigned key whose integer order matches the double
// order: flip all bits of negatives, set the sign bit of non-negatives.
std::uint64_t order_key(double x) {
  const auto bits = std::bit_cast<std::uint64_t>(x);
  return (bits & 0x8000000000000000ULL) ? ~bits : bits | 0x8000000000000000ULL;
}

// Values at ranks r0 and r1 (0-based order statistics, r1 in {r0, r0+1}) via
// MSB radix selection: each round histograms an 11-bit digit of the order
// key, keeps only the bucket range containing both ranks, and recurses on
// the survivors. Selection never reorders across equal keys, so the returned
// values match nth_element / a full sort exactly; only the work drops from
// the selection network's data-dependent shuffling to a few sequential
// counting passes.
std::pair<double, double> two_order_stats_radix(std::span<const double> xs,
                                                std::size_t r0, std::size_t r1) {
  constexpr int kDigitBits = 11;
  constexpr std::size_t kBuckets = std::size_t{1} << kDigitBits;
  constexpr std::size_t kSmall = 64;

  // Two passes over the full input in total: one to histogram the leading
  // digit, one to collect the surviving bucket range — which simultaneously
  // histograms the *next* digit of the survivors, so every later round costs
  // a single pass over an already much smaller working set. The input itself
  // is never copied wholesale.
  //
  // The counting pass stripes across four interleaved histograms: the
  // envelope this feeds is smooth, so consecutive samples hit the same
  // bucket, and a single counter array would serialize on the
  // store-to-load-forwarded increment. Four independent counters break that
  // chain; their sum is order-independent (integer adds).
  thread_local std::vector<double> buf_a, buf_b;
  std::array<std::uint32_t, kBuckets> hist{};
  int shift = 64 - kDigitBits;
  {
    thread_local std::vector<std::uint32_t> stripes;
    stripes.assign(4 * kBuckets, 0);
    std::uint32_t* h4 = stripes.data();
    const std::size_t n = xs.size();
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
      ++h4[0 * kBuckets + ((order_key(xs[i]) >> shift) & (kBuckets - 1))];
      ++h4[1 * kBuckets + ((order_key(xs[i + 1]) >> shift) & (kBuckets - 1))];
      ++h4[2 * kBuckets + ((order_key(xs[i + 2]) >> shift) & (kBuckets - 1))];
      ++h4[3 * kBuckets + ((order_key(xs[i + 3]) >> shift) & (kBuckets - 1))];
    }
    for (; i < n; ++i) ++h4[(order_key(xs[i]) >> shift) & (kBuckets - 1)];
    for (std::size_t b = 0; b < kBuckets; ++b)
      hist[b] = h4[b] + h4[kBuckets + b] + h4[2 * kBuckets + b] + h4[3 * kBuckets + b];
  }

  std::span<const double> cur = xs;
  std::vector<double>* dst = &buf_a;
  std::vector<double>* spare = &buf_b;

  while (true) {
    // Bucket range [b0, b1] holding ranks r0 and r1, the element count
    // strictly below it, and the exact survivor count.
    std::size_t below = 0, b0 = 0;
    while (below + hist[b0] <= r0) below += hist[b0++];
    std::size_t b1 = b0, upto = below + hist[b0];
    while (upto <= r1) upto += hist[++b1];
    const std::size_t keep = upto - below;
    r0 -= below;
    r1 -= below;

    if (b0 != b1) {
      // The two ranks straddle a bucket boundary: rank r0 closes bucket b0's
      // cumulative count and rank r1 opens bucket b1's (buckets between are
      // empty), so the order statistics are exactly that bucket's maximum and
      // this bucket's minimum. Recursing on the next digit would be wrong
      // here — survivors from different top digits don't sort by lower
      // digits alone. Plain double max/min matches key order because a
      // bucket fixes the key's top bits, sign included.
      bool f0 = false, f1 = false;
      double v0 = 0.0, v1 = 0.0;
      for (double x : cur) {
        const std::size_t b = (order_key(x) >> shift) & (kBuckets - 1);
        if (b == b0) {
          v0 = f0 ? std::max(v0, x) : x;
          f0 = true;
        } else if (b == b1) {
          v1 = f1 ? std::min(v1, x) : x;
          f1 = true;
        }
      }
      return {v0, v1};
    }

    const int next_shift_if_skipping = shift - kDigitBits;
    if (keep == cur.size() && next_shift_if_skipping >= 0 && keep > kSmall) {
      // This digit failed to discriminate (every element shares the bucket
      // range). Nothing to copy — re-histogram the next digit in place
      // (two stripes, same reasoning as the first pass).
      std::array<std::uint32_t, 2 * kBuckets> nh{};
      const std::size_t m = cur.size();
      std::size_t j = 0;
      for (; j + 2 <= m; j += 2) {
        ++nh[(order_key(cur[j]) >> next_shift_if_skipping) & (kBuckets - 1)];
        ++nh[kBuckets +
             ((order_key(cur[j + 1]) >> next_shift_if_skipping) & (kBuckets - 1))];
      }
      for (; j < m; ++j)
        ++nh[(order_key(cur[j]) >> next_shift_if_skipping) & (kBuckets - 1)];
      for (std::size_t b = 0; b < kBuckets; ++b) hist[b] = nh[b] + nh[kBuckets + b];
      shift = next_shift_if_skipping;
      continue;
    }

    // Collect the surviving bucket (b0 == b1 here, so the test is a single
    // compare). The branch is data-dependent but the survivor set is one
    // digit value, so runs of accept/reject dominate and predict well; a
    // branchless variant measured no faster.
    dst->resize(keep);
    double* out = dst->data();
    const int next_shift = shift - kDigitBits;

    if (next_shift < 0 || keep <= kSmall) {
      std::size_t w = 0;
      for (double x : cur) {
        const std::size_t b = (order_key(x) >> shift) & (kBuckets - 1);
        if (b == b0) out[w++] = x;
      }
      const auto first = dst->begin();
      const auto last = first + static_cast<std::ptrdiff_t>(keep);
      const auto nth = first + static_cast<std::ptrdiff_t>(r0);
      std::nth_element(first, nth, last);
      const double v0 = *nth;
      const double v1 = r1 == r0 ? v0 : *std::min_element(nth + 1, last);
      return {v0, v1};
    }

    // Fold the next digit's histogram into the same pass so the survivors are
    // only read once per round. Two stripes selected by write-cursor parity
    // break the same-counter store-forwarding chain on smooth data.
    std::array<std::uint32_t, 2 * kBuckets> nh{};
    std::size_t w = 0;
    for (double x : cur) {
      const std::uint64_t key = order_key(x);
      const std::size_t b = (key >> shift) & (kBuckets - 1);
      if (b == b0) {
        out[w] = x;
        ++nh[(w & 1) * kBuckets + ((key >> next_shift) & (kBuckets - 1))];
        ++w;
      }
    }
    for (std::size_t b = 0; b < kBuckets; ++b) hist[b] = nh[b] + nh[kBuckets + b];
    shift = next_shift;
    cur = std::span<const double>(dst->data(), keep);
    std::swap(dst, spare);
  }
}

}  // namespace

double mean(std::span<const double> xs) {
  require_nonempty("mean input", xs.size());
  double acc = 0.0;
  for (double x : xs) acc += x;
  return acc / static_cast<double>(xs.size());
}

double variance(std::span<const double> xs) {
  require_nonempty("variance input", xs.size());
  const double mu = mean(xs);
  return central_moment(xs, mu, 2);
}

double stddev(std::span<const double> xs) { return std::sqrt(variance(xs)); }

double min_value(std::span<const double> xs) {
  require_nonempty("min_value input", xs.size());
  return *std::min_element(xs.begin(), xs.end());
}

double max_value(std::span<const double> xs) {
  require_nonempty("max_value input", xs.size());
  return *std::max_element(xs.begin(), xs.end());
}

double skewness(std::span<const double> xs) {
  require_nonempty("skewness input", xs.size());
  const double mu = mean(xs);
  const double m2 = central_moment(xs, mu, 2);
  if (m2 <= 0.0) return 0.0;
  return central_moment(xs, mu, 3) / std::pow(m2, 1.5);
}

double kurtosis_excess(std::span<const double> xs) {
  require_nonempty("kurtosis input", xs.size());
  const double mu = mean(xs);
  const double m2 = central_moment(xs, mu, 2);
  if (m2 <= 0.0) return 0.0;
  return central_moment(xs, mu, 4) / (m2 * m2) - 3.0;
}

double rms(std::span<const double> xs) {
  require_nonempty("rms input", xs.size());
  return std::sqrt(energy(xs) / static_cast<double>(xs.size()));
}

double energy(std::span<const double> xs) {
  double acc = 0.0;
  for (double x : xs) acc += x * x;
  return acc;
}

double median(std::span<const double> xs) { return percentile(xs, 50.0); }

double percentile(std::span<const double> xs, double p) {
  require_nonempty("percentile input", xs.size());
  require_in_range("percentile p", p, 0.0, 100.0);
  if (xs.size() == 1) return xs.front();
  const double pos = p / 100.0 * static_cast<double>(xs.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  // Two order statistics instead of a full sort. Both paths return the exact
  // lo-th and hi-th smallest values — identical to sorting — they differ only
  // in how they find them: nth_element places the lo-th value and leaves
  // everything above it to the right (the hi-th value is then the minimum of
  // that right partition); the radix path counts its way down the key bits,
  // which on large inputs beats introselect's shuffling by a wide margin
  // (the event detector takes the median of a whole recording's envelope).
  constexpr std::size_t kRadixThreshold = 2048;
  double v_lo, v_hi;
  if (xs.size() >= kRadixThreshold) {
    const auto [v0, v1] = two_order_stats_radix(xs, lo, hi);
    v_lo = v0;
    v_hi = v1;
  } else {
    std::vector<double> work(xs.begin(), xs.end());
    auto nth = work.begin() + static_cast<std::ptrdiff_t>(lo);
    std::nth_element(work.begin(), nth, work.end());
    v_lo = *nth;
    v_hi = hi == lo ? v_lo : *std::min_element(nth + 1, work.end());
  }
  return v_lo * (1.0 - frac) + v_hi * frac;
}

MedianBracket MedianBracketCounter::bracket() const {
  // In value order the buckets run from 0xfff down to 0x800 (the negatives,
  // -inf/-NaN first, -0 and the negative subnormals last), then from 0x000
  // up to 0x7ff (+0 first, +inf/+NaN last). The total is summed here rather
  // than counted per add: a second counter in the producer's loop costs more
  // than one pass over the buckets.
  constexpr std::size_t kSign = 0x800;
  std::size_t positive = 0, negative = 0;
  for (std::size_t b = 0; b < kSign; ++b) {
    positive += counts_[b];
    negative += counts_[kSign + b];
  }
  const std::size_t n = positive + negative;
  require_nonempty("MedianBracketCounter", n);
  const auto bucket = [](std::size_t v) { return v < kSign ? 2 * kSign - 1 - v : v - kSign; };

  // median() = percentile(xs, 50): ranks (n-1)/2 and the next one up. The
  // walk skips the negative half when the lower rank lies above it.
  const std::size_t r0 = (n - 1) / 2;
  const std::size_t r1 = std::min(r0 + 1, n - 1);
  std::size_t v0 = negative <= r0 ? kSign : 0;
  std::size_t upto = (negative <= r0 ? negative : 0) + counts_[bucket(v0)];
  while (upto <= r0) upto += counts_[bucket(++v0)];
  std::size_t v1 = v0;
  while (upto <= r1) upto += counts_[bucket(++v1)];

  // The smallest double of the lower rank's bucket and the largest of the
  // upper one's: mantissa all zeros or all ones, by sign.
  constexpr std::uint64_t kMantissa = (std::uint64_t{1} << 52) - 1;
  const auto edge = [](std::size_t b, bool largest) {
    const std::uint64_t bits = std::uint64_t{b} << 52;
    return std::bit_cast<double>(largest == (b < kSign) ? bits | kMantissa : bits);
  };
  MedianBracket bracket;
  bracket.finite = counts_[kSign - 1] == 0 && counts_[2 * kSign - 1] == 0;
  bracket.lo = edge(bucket(v0), false);
  bracket.hi = edge(bucket(v1), true);
  return bracket;
}

double pearson_correlation(std::span<const double> xs, std::span<const double> ys) {
  require(xs.size() == ys.size(), "pearson_correlation: size mismatch");
  require_nonempty("pearson_correlation input", xs.size());
  const double mx = mean(xs);
  const double my = mean(ys);
  double sxy = 0.0, sxx = 0.0, syy = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double dx = xs[i] - mx;
    const double dy = ys[i] - my;
    sxy += dx * dy;
    sxx += dx * dx;
    syy += dy * dy;
  }
  if (sxx <= 0.0 || syy <= 0.0) return 0.0;
  return sxy / std::sqrt(sxx * syy);
}

SummaryStats summarize(std::span<const double> xs) {
  require_nonempty("summarize input", xs.size());
  // The mean and the second moment once each, shared by the four statistics
  // that use them; each value is the expression its own function computes.
  SummaryStats s;
  s.mean = mean(xs);
  const double m2 = central_moment(xs, s.mean, 2);
  s.stddev = std::sqrt(m2);
  s.min = min_value(xs);
  s.max = max_value(xs);
  s.skewness = m2 <= 0.0 ? 0.0 : central_moment(xs, s.mean, 3) / std::pow(m2, 1.5);
  s.kurtosis_excess = m2 <= 0.0 ? 0.0 : central_moment(xs, s.mean, 4) / (m2 * m2) - 3.0;
  return s;
}

std::size_t argmax(std::span<const double> xs) {
  require_nonempty("argmax input", xs.size());
  return static_cast<std::size_t>(std::max_element(xs.begin(), xs.end()) - xs.begin());
}

std::size_t argmin(std::span<const double> xs) {
  require_nonempty("argmin input", xs.size());
  return static_cast<std::size_t>(std::min_element(xs.begin(), xs.end()) - xs.begin());
}

}  // namespace earsonar
