// Descriptive statistics over contiguous double sequences.
//
// These are the statistical features the paper extracts from the echo power
// spectrum (mean, standard deviation, min/max, skewness, kurtosis) plus the
// correlation and percentile helpers the evaluation figures need.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace earsonar {

/// Arithmetic mean. Requires a non-empty input.
double mean(std::span<const double> xs);

/// Population variance (divides by N). Requires a non-empty input.
double variance(std::span<const double> xs);

/// Population standard deviation.
double stddev(std::span<const double> xs);

/// Smallest element. Requires a non-empty input.
double min_value(std::span<const double> xs);

/// Largest element. Requires a non-empty input.
double max_value(std::span<const double> xs);

/// Fisher skewness (third standardized moment); 0 for constant input.
double skewness(std::span<const double> xs);

/// Excess kurtosis (fourth standardized moment minus 3); 0 for constant input.
double kurtosis_excess(std::span<const double> xs);

/// Root mean square.
double rms(std::span<const double> xs);

/// Sum of squared samples (signal energy).
double energy(std::span<const double> xs);

/// Median via partial sort. Requires a non-empty input.
double median(std::span<const double> xs);

/// Linear-interpolated percentile, p in [0, 100]. Requires non-empty input.
double percentile(std::span<const double> xs, double p);

/// Bounds on a median from a sign+exponent histogram: `lo` is the smallest
/// double with the sign and exponent of the lower of the two order statistics
/// median() interpolates, `hi` the largest with those of the upper one (one
/// octave apart for positive normal values). Interpolating two values in
/// [lo, hi] stays in [lo, hi] under monotone rounding, except that halving a
/// value below 2^-1021 in magnitude may round past a bound. `finite` is
/// false, and the bounds meaningless, when the values hold an infinity or
/// NaN.
struct MedianBracket {
  double lo = 0.0;
  double hi = 0.0;
  bool finite = false;
};

/// Incremental MedianBracket: counts each added value into one of 4096
/// buckets by its top 12 bits, sign and exponent (16 KB), so a producer can
/// bracket the median of a sequence while it computes it, with no second
/// pass over the values. Adding the same value `count` times at once counts
/// the same as adding it `count` times one by one.
class MedianBracketCounter {
 public:
  void add(double x) { ++counts_[std::bit_cast<std::uint64_t>(x) >> 52]; }
  void add(double x, std::uint32_t count) {
    counts_[std::bit_cast<std::uint64_t>(x) >> 52] += count;
  }
  /// The bracket of median() over every value added. Requires at least one.
  [[nodiscard]] MedianBracket bracket() const;

  /// Equal bucket counts.
  bool operator==(const MedianBracketCounter&) const = default;

 private:
  std::array<std::uint32_t, 4096> counts_{};
};

/// Pearson correlation coefficient; inputs must have equal, non-zero length.
/// Returns 0 when either input is constant (correlation undefined).
double pearson_correlation(std::span<const double> xs, std::span<const double> ys);

/// All the summary statistics the feature extractor consumes, in one pass.
struct SummaryStats {
  double mean = 0.0;
  double stddev = 0.0;
  double min = 0.0;
  double max = 0.0;
  double skewness = 0.0;
  double kurtosis_excess = 0.0;
};

/// Computes SummaryStats over a non-empty sequence.
SummaryStats summarize(std::span<const double> xs);

/// argmax index. Requires a non-empty input.
std::size_t argmax(std::span<const double> xs);

/// argmin index. Requires a non-empty input.
std::size_t argmin(std::span<const double> xs);

}  // namespace earsonar
