// Unit tests for the common substrate: contracts, RNG, units, statistics,
// CSV/table formatting, logging.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/csv.hpp"
#include "common/error.hpp"
#include "common/log.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "common/units.hpp"

namespace earsonar {
namespace {

// ---------------------------------------------------------------- error.hpp

TEST(ErrorTest, RequirePassesOnTrue) { EXPECT_NO_THROW(require(true, "ok")); }

TEST(ErrorTest, RequireThrowsInvalidArgument) {
  EXPECT_THROW(require(false, "bad"), std::invalid_argument);
}

TEST(ErrorTest, EnsureThrowsLogicError) {
  EXPECT_THROW(ensure(false, "bug"), std::logic_error);
}

TEST(ErrorTest, FailThrowsRuntimeError) {
  EXPECT_THROW(fail("io"), std::runtime_error);
}

TEST(ErrorTest, RangeMessageMentionsNameAndBounds) {
  const std::string msg = range_message("alpha", 5.0, 0.0, 1.0);
  EXPECT_NE(msg.find("alpha"), std::string::npos);
  EXPECT_NE(msg.find("5"), std::string::npos);
}

TEST(ErrorTest, RequireInRangeAcceptsBoundaries) {
  EXPECT_NO_THROW(require_in_range("x", 0.0, 0.0, 1.0));
  EXPECT_NO_THROW(require_in_range("x", 1.0, 0.0, 1.0));
}

TEST(ErrorTest, RequireInRangeRejectsOutside) {
  EXPECT_THROW(require_in_range("x", -0.001, 0.0, 1.0), std::invalid_argument);
  EXPECT_THROW(require_in_range("x", 1.001, 0.0, 1.0), std::invalid_argument);
}

TEST(ErrorTest, RequirePositiveRejectsZeroAndNegative) {
  EXPECT_THROW(require_positive("x", 0.0), std::invalid_argument);
  EXPECT_THROW(require_positive("x", -1.0), std::invalid_argument);
  EXPECT_NO_THROW(require_positive("x", 1e-12));
}

TEST(ErrorTest, RequireNonemptyRejectsZero) {
  EXPECT_THROW(require_nonempty("v", 0), std::invalid_argument);
  EXPECT_NO_THROW(require_nonempty("v", 1));
}

// ------------------------------------------------------------------ rng.hpp

// Exact-value pins for every distribution helper. The raw engine sequence is
// standard-specified (MT19937-64) and every helper on top of it is an
// explicit portable algorithm (Lemire, Box–Muller, Fisher–Yates), so these
// values must hold on every conforming standard library. Any change here is
// a silent cross-platform reproducibility break — goldens, cohort datasets,
// and the trajectory simulator all inherit this stream.
TEST(RngTest, PinnedDrawSequenceIsPortable) {
  {
    Rng r(42);
    EXPECT_EQ(r.next_u64(), 13930160852258120406ull);
    EXPECT_EQ(r.next_u64(), 11788048577503494824ull);
    EXPECT_EQ(r.next_u64(), 13874630024467741450ull);
  }
  {
    Rng r(42);
    EXPECT_DOUBLE_EQ(r.uniform01(), 0.75515553295453897);
  }
  {
    Rng r(42);
    EXPECT_DOUBLE_EQ(r.uniform(-1.0, 1.0), 0.51031106590907793);
  }
  {
    Rng r(42);
    EXPECT_EQ(r.uniform_int(1, 6), 5);
    EXPECT_EQ(r.uniform_int(1, 6), 4);
    EXPECT_EQ(r.uniform_int(1, 6), 5);
    EXPECT_EQ(r.uniform_int(1, 6), 1);
  }
  {
    Rng r(42);
    EXPECT_EQ(r.uniform_below(10), 7u);
    EXPECT_EQ(r.uniform_below(10), 6u);
    EXPECT_EQ(r.uniform_below(10), 7u);
  }
  {
    Rng r(42);
    EXPECT_DOUBLE_EQ(r.normal(0.0, 1.0), -1.0771745442782885);
    EXPECT_DOUBLE_EQ(r.normal(0.0, 1.0), 1.0945198485006107);
  }
  {
    Rng r(42);
    EXPECT_FALSE(r.bernoulli(0.5));
    EXPECT_FALSE(r.bernoulli(0.5));
    EXPECT_FALSE(r.bernoulli(0.5));
    EXPECT_TRUE(r.bernoulli(0.5));
    EXPECT_FALSE(r.bernoulli(0.5));
  }
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_DOUBLE_EQ(a.uniform(0, 1), b.uniform(0, 1));
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 50; ++i)
    if (a.uniform(0, 1) == b.uniform(0, 1)) ++same;
  EXPECT_LT(same, 5);
}

TEST(RngTest, UniformStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(-2.0, 3.0);
    EXPECT_GE(v, -2.0);
    EXPECT_LT(v, 3.0);
  }
}

TEST(RngTest, UniformRejectsInvertedRange) {
  Rng rng(7);
  EXPECT_THROW(rng.uniform(1.0, 0.0), std::invalid_argument);
}

TEST(RngTest, UniformIntCoversBounds) {
  Rng rng(9);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.uniform_int(0, 4));
  EXPECT_EQ(seen.size(), 5u);
  EXPECT_EQ(*seen.begin(), 0);
  EXPECT_EQ(*seen.rbegin(), 4);
}

TEST(RngTest, NormalMatchesMoments) {
  Rng rng(11);
  std::vector<double> xs(20000);
  for (double& x : xs) x = rng.normal(5.0, 2.0);
  EXPECT_NEAR(mean(xs), 5.0, 0.1);
  EXPECT_NEAR(stddev(xs), 2.0, 0.1);
}

TEST(RngTest, NormalZeroSigmaIsDeterministic) {
  Rng rng(1);
  EXPECT_DOUBLE_EQ(rng.normal(3.0, 0.0), 3.0);
}

TEST(RngTest, NormalRejectsNegativeSigma) {
  Rng rng(1);
  EXPECT_THROW(rng.normal(0.0, -1.0), std::invalid_argument);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(13);
  int heads = 0;
  for (int i = 0; i < 10000; ++i) heads += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(heads / 10000.0, 0.3, 0.03);
}

TEST(RngTest, BernoulliRejectsOutOfRangeP) {
  Rng rng(1);
  EXPECT_THROW(rng.bernoulli(-0.1), std::invalid_argument);
  EXPECT_THROW(rng.bernoulli(1.1), std::invalid_argument);
}

TEST(RngTest, WeightedIndexRespectsWeights) {
  Rng rng(17);
  const std::vector<double> weights{0.0, 1.0, 3.0};
  std::vector<int> counts(3, 0);
  for (int i = 0; i < 8000; ++i) counts[rng.weighted_index(weights)]++;
  EXPECT_EQ(counts[0], 0);
  EXPECT_NEAR(counts[2] / static_cast<double>(counts[1]), 3.0, 0.4);
}

TEST(RngTest, WeightedIndexRejectsAllZero) {
  Rng rng(1);
  const std::vector<double> weights{0.0, 0.0};
  EXPECT_THROW(rng.weighted_index(weights), std::invalid_argument);
}

TEST(RngTest, WeightedIndexRejectsNegative) {
  Rng rng(1);
  const std::vector<double> weights{1.0, -0.5};
  EXPECT_THROW(rng.weighted_index(weights), std::invalid_argument);
}

TEST(RngTest, PermutationIsPermutation) {
  Rng rng(19);
  const std::vector<std::size_t> p = rng.permutation(64);
  std::set<std::size_t> unique(p.begin(), p.end());
  EXPECT_EQ(unique.size(), 64u);
  EXPECT_EQ(*unique.begin(), 0u);
  EXPECT_EQ(*unique.rbegin(), 63u);
}

TEST(RngTest, SampleWithoutReplacementDistinctSorted) {
  Rng rng(23);
  const std::vector<std::size_t> s = rng.sample_without_replacement(50, 10);
  EXPECT_EQ(s.size(), 10u);
  for (std::size_t i = 1; i < s.size(); ++i) EXPECT_LT(s[i - 1], s[i]);
}

TEST(RngTest, SampleWithoutReplacementRejectsTooMany) {
  Rng rng(1);
  EXPECT_THROW(rng.sample_without_replacement(5, 6), std::invalid_argument);
}

TEST(RngTest, ForkStreamsAreIndependent) {
  Rng parent(31);
  Rng a = parent.fork(0);
  Rng b = parent.fork(1);
  EXPECT_NE(a.uniform(0, 1), b.uniform(0, 1));
}

TEST(RngTest, ForkIsDeterministic) {
  Rng p1(31), p2(31);
  Rng a = p1.fork(5);
  Rng b = p2.fork(5);
  for (int i = 0; i < 20; ++i) EXPECT_DOUBLE_EQ(a.uniform(0, 1), b.uniform(0, 1));
}

TEST(RngTest, SplitMixIsStable) {
  // Known-answer: splitmix64 of 0 is a published constant.
  EXPECT_EQ(splitmix64(0), 0xe220a8397b1dcdafULL);
}

// ---------------------------------------------------------------- units.hpp

TEST(UnitsTest, DbAmplitudeRoundTrip) {
  for (double db : {-40.0, -6.0, 0.0, 6.0, 20.0})
    EXPECT_NEAR(amplitude_to_db(db_to_amplitude(db)), db, 1e-9);
}

TEST(UnitsTest, SixDbDoublesAmplitude) {
  EXPECT_NEAR(db_to_amplitude(6.0206), 2.0, 1e-3);
}

TEST(UnitsTest, EchoDelayMatchesHandComputation) {
  // 3.43 m round trip at 343 m/s is exactly 20 ms.
  EXPECT_NEAR(echo_delay_seconds(1.715), 0.01, 1e-12);
}

TEST(UnitsTest, SamplesToDistanceInvertsDelay) {
  const double d = 0.0301;
  const double samples = echo_delay_seconds(d) * 48000.0;
  EXPECT_NEAR(samples_to_distance_m(samples, 48000.0), d, 1e-12);
}

TEST(UnitsTest, CharacteristicImpedanceAir) {
  EXPECT_NEAR(characteristic_impedance(kAirDensity, kSpeedOfSoundAir), 413.0, 1.0);
}

TEST(UnitsTest, CharacteristicImpedanceWater) {
  const double z = characteristic_impedance(kWaterDensity, kSpeedOfSoundWater);
  EXPECT_NEAR(z, 1.48e6, 0.02e6);
}

TEST(UnitsTest, RejectsNonPositiveInputs) {
  EXPECT_THROW(amplitude_to_db(0.0), std::invalid_argument);
  EXPECT_THROW(echo_delay_seconds(-1.0), std::invalid_argument);
  EXPECT_THROW(characteristic_impedance(0.0, 343.0), std::invalid_argument);
}

// ---------------------------------------------------------------- stats.hpp

TEST(StatsTest, MeanOfKnownSequence) {
  const std::vector<double> xs{1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(mean(xs), 2.5);
}

TEST(StatsTest, VarianceIsPopulation) {
  const std::vector<double> xs{2, 4, 4, 4, 5, 5, 7, 9};
  EXPECT_DOUBLE_EQ(variance(xs), 4.0);  // classic textbook example
  EXPECT_DOUBLE_EQ(stddev(xs), 2.0);
}

TEST(StatsTest, MinMax) {
  const std::vector<double> xs{3, -1, 4, 1, 5};
  EXPECT_DOUBLE_EQ(min_value(xs), -1);
  EXPECT_DOUBLE_EQ(max_value(xs), 5);
}

TEST(StatsTest, SkewnessOfSymmetricDataIsZero) {
  const std::vector<double> xs{-2, -1, 0, 1, 2};
  EXPECT_NEAR(skewness(xs), 0.0, 1e-12);
}

TEST(StatsTest, SkewnessSignMatchesTail) {
  const std::vector<double> right{1, 1, 1, 1, 10};
  const std::vector<double> left{-10, 1, 1, 1, 1};
  EXPECT_GT(skewness(right), 0.5);
  EXPECT_LT(skewness(left), -0.5);
}

TEST(StatsTest, ConstantInputHasZeroSkewAndKurtosis) {
  const std::vector<double> xs{3, 3, 3};
  EXPECT_DOUBLE_EQ(skewness(xs), 0.0);
  EXPECT_DOUBLE_EQ(kurtosis_excess(xs), 0.0);
}

TEST(StatsTest, GaussianKurtosisNearZero) {
  Rng rng(3);
  std::vector<double> xs(50000);
  for (double& x : xs) x = rng.normal(0, 1);
  EXPECT_NEAR(kurtosis_excess(xs), 0.0, 0.15);
}

TEST(StatsTest, RmsAndEnergy) {
  const std::vector<double> xs{3, 4};
  EXPECT_DOUBLE_EQ(energy(xs), 25.0);
  EXPECT_NEAR(rms(xs), std::sqrt(12.5), 1e-12);
}

TEST(StatsTest, MedianOddAndEven) {
  const std::vector<double> odd{5, 1, 3};
  const std::vector<double> even{4, 1, 3, 2};
  EXPECT_DOUBLE_EQ(median(odd), 3.0);
  EXPECT_DOUBLE_EQ(median(even), 2.5);
}

TEST(StatsTest, PercentileEndpoints) {
  const std::vector<double> xs{10, 20, 30, 40};
  EXPECT_DOUBLE_EQ(percentile(xs, 0), 10);
  EXPECT_DOUBLE_EQ(percentile(xs, 100), 40);
  EXPECT_DOUBLE_EQ(percentile(xs, 50), 25);
}

TEST(StatsTest, PercentileLargeInputMatchesSort) {
  // Exercises the radix-select path (>= 2048 elements) against a full sort,
  // including interpolated ranks.
  std::vector<double> xs(6000);
  std::uint64_t state = 12345;
  for (double& v : xs) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    v = (static_cast<double>(state >> 11) / 9007199254740992.0 - 0.5) * 1e6;
  }
  std::vector<double> sorted = xs;
  std::sort(sorted.begin(), sorted.end());
  for (double p : {0.0, 1.0, 25.0, 50.0, 73.3, 99.0, 100.0}) {
    const double pos = p / 100.0 * static_cast<double>(xs.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, xs.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    const double expected = sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
    EXPECT_DOUBLE_EQ(percentile(xs, p), expected) << "p=" << p;
  }
}

// MedianBracketCounter's bounds hold the exact median, span one octave
// around a single nonzero value, and flag non-finite input.
TEST(StatsTest, MedianBracketHoldsMedian) {
  const auto bracket_of = [](const std::vector<double>& xs) {
    MedianBracketCounter counter;
    for (double x : xs) counter.add(x);
    return counter.bracket();
  };
  Rng rng(23);
  for (std::size_t n : {1UL, 2UL, 3UL, 10UL, 1001UL, 7712UL}) {
    for (double scale : {1e-12, 1.0, 3e5, -1.0}) {
      std::vector<double> xs(n);
      for (double& x : xs) x = scale * rng.uniform(-0.2, 1.0);
      const double m = median(xs);
      const MedianBracket b = bracket_of(xs);
      EXPECT_TRUE(b.finite);
      EXPECT_LE(b.lo, m) << "n=" << n << " scale=" << scale;
      EXPECT_GE(b.hi, m) << "n=" << n << " scale=" << scale;
      // One value, one octave.
      if (n == 1 && b.lo > 0.0) {
        EXPECT_LT(b.hi, 2.0 * b.lo);
      } else if (n == 1 && b.hi < 0.0) {
        EXPECT_GT(b.lo, 2.0 * b.hi);
      }
    }
  }
  const std::vector<double> with_inf = {1.0, std::numeric_limits<double>::infinity(), 2.0};
  EXPECT_FALSE(bracket_of(with_inf).finite);
  const std::vector<double> with_nan = {1.0, std::numeric_limits<double>::quiet_NaN(), 2.0};
  EXPECT_FALSE(bracket_of(with_nan).finite);
}

// A weighted add (the event detector's trailing zero centers, counted at
// once) brackets exactly as adding the value that many times one by one,
// wherever the repeated value falls in the order.
TEST(StatsTest, MedianBracketWeightedAddEqualsSingleAdds) {
  Rng rng(29);
  for (std::size_t n : {0UL, 1UL, 5UL, 100UL}) {
    for (std::uint32_t repeat : {1U, 2U, 8U, 300U}) {
      for (double value : {0.0, -3.0, 0.5, 1e9}) {
        MedianBracketCounter weighted, single;
        for (std::size_t i = 0; i < n; ++i) {
          const double x = rng.uniform(-1.0, 2.0);
          weighted.add(x);
          single.add(x);
        }
        weighted.add(value, repeat);
        for (std::uint32_t r = 0; r < repeat; ++r) single.add(value);
        const MedianBracket a = weighted.bracket();
        const MedianBracket b = single.bracket();
        const std::string where = "n=" + std::to_string(n) + " repeat=" +
                                  std::to_string(repeat) + " value=" + std::to_string(value);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(a.lo), std::bit_cast<std::uint64_t>(b.lo))
            << where;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(a.hi), std::bit_cast<std::uint64_t>(b.hi))
            << where;
        EXPECT_EQ(a.finite, b.finite) << where;
      }
    }
  }
}

TEST(StatsTest, PercentileRanksStraddlingRadixBuckets) {
  // Median ranks fall on the last element of one exponent bucket and the
  // first of another: the selection must not recurse on lower key digits
  // across the bucket boundary. 2048 values near 1.0 and 2048 near 2.0 with
  // distinct mantissa tails make any cross-bucket mixing visible.
  std::vector<double> xs;
  for (std::size_t i = 0; i < 2048; ++i)
    xs.push_back(1.0 + static_cast<double>(i) * 1e-7);
  for (std::size_t i = 0; i < 2048; ++i)
    xs.push_back(2.0 + static_cast<double>(i) * 1e-7);
  // Interleave so the radix path sees them unsorted.
  std::vector<double> shuffled;
  for (std::size_t i = 0; i < 2048; ++i) {
    shuffled.push_back(xs[4095 - i]);
    shuffled.push_back(xs[i]);
  }
  const double lo_max = 1.0 + 2047.0 * 1e-7;  // largest of the 1.x group
  const double hi_min = 2.0;                  // smallest of the 2.x group
  EXPECT_DOUBLE_EQ(median(shuffled), 0.5 * (lo_max + hi_min));
}

TEST(StatsTest, PearsonPerfectCorrelation) {
  const std::vector<double> xs{1, 2, 3, 4};
  const std::vector<double> ys{2, 4, 6, 8};
  EXPECT_NEAR(pearson_correlation(xs, ys), 1.0, 1e-12);
}

TEST(StatsTest, PearsonAnticorrelation) {
  const std::vector<double> xs{1, 2, 3};
  const std::vector<double> ys{3, 2, 1};
  EXPECT_NEAR(pearson_correlation(xs, ys), -1.0, 1e-12);
}

TEST(StatsTest, PearsonConstantInputIsZero) {
  const std::vector<double> xs{1, 1, 1};
  const std::vector<double> ys{1, 2, 3};
  EXPECT_DOUBLE_EQ(pearson_correlation(xs, ys), 0.0);
}

// summarize() shares one mean and one second moment across its statistics;
// each must still equal its own function bit for bit (the feature vector's
// PSD statistics go through summarize()).
TEST(StatsTest, SummarizeMatchesPieces) {
  Rng rng(11);
  std::vector<double> psd(128);
  for (double& v : psd) v = rng.uniform(0.01, 3.0);
  for (const std::vector<double>& xs :
       {std::vector<double>{1, 2, 2, 3, 8}, std::vector<double>(5, 2.5), psd}) {
    const SummaryStats s = summarize(xs);
    EXPECT_EQ(s.mean, mean(xs));
    EXPECT_EQ(s.stddev, stddev(xs));
    EXPECT_EQ(s.min, min_value(xs));
    EXPECT_EQ(s.max, max_value(xs));
    EXPECT_EQ(s.skewness, skewness(xs));
    EXPECT_EQ(s.kurtosis_excess, kurtosis_excess(xs));
  }
}

TEST(StatsTest, ArgmaxArgmin) {
  const std::vector<double> xs{3, 9, -2, 9};
  EXPECT_EQ(argmax(xs), 1u);  // first maximum wins
  EXPECT_EQ(argmin(xs), 2u);
}

TEST(StatsTest, EmptyInputThrows) {
  const std::vector<double> xs;
  EXPECT_THROW(mean(xs), std::invalid_argument);
  EXPECT_THROW(median(xs), std::invalid_argument);
  EXPECT_THROW(argmax(xs), std::invalid_argument);
}

// ------------------------------------------------------------------ csv.hpp

TEST(CsvTest, WritesHeaderAndRows) {
  const std::string path = std::filesystem::temp_directory_path() / "earsonar_csv_test.csv";
  {
    CsvWriter csv(path);
    csv.header({"name", "value"});
    csv.row("alpha", {1.5});
    csv.row({"beta", "x,y"});
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "name,value");
  std::getline(in, line);
  EXPECT_EQ(line, "alpha,1.5");
  std::getline(in, line);
  EXPECT_EQ(line, "beta,\"x,y\"");
  std::filesystem::remove(path);
}

TEST(CsvTest, EscapeQuotesAndNewlines) {
  EXPECT_EQ(CsvWriter::escape("plain"), "plain");
  EXPECT_EQ(CsvWriter::escape("a\"b"), "\"a\"\"b\"");
  EXPECT_EQ(CsvWriter::escape("a\nb"), "\"a\nb\"");
}

TEST(CsvTest, FormatUsesCompactPrecision) {
  EXPECT_EQ(CsvWriter::format(1.0), "1");
  EXPECT_EQ(CsvWriter::format(0.25), "0.25");
}

TEST(CsvTest, UnwritablePathThrows) {
  EXPECT_THROW(CsvWriter("/nonexistent_dir_xyz/file.csv"), std::runtime_error);
}

// ---------------------------------------------------------------- table.hpp

TEST(TableTest, RendersAlignedColumns) {
  AsciiTable table({"metric", "value"});
  table.add_row("accuracy", {0.928}, 3);
  const std::string out = table.to_string();
  EXPECT_NE(out.find("metric"), std::string::npos);
  EXPECT_NE(out.find("0.928"), std::string::npos);
  EXPECT_NE(out.find('|'), std::string::npos);
}

TEST(TableTest, PadsShortRows) {
  AsciiTable table({"a", "b", "c"});
  table.add_row({"only"});
  EXPECT_EQ(table.row_count(), 1u);
  EXPECT_NO_THROW(table.to_string());
}

TEST(TableTest, FormatRespectsDecimals) {
  EXPECT_EQ(AsciiTable::format(1.23456, 2), "1.23");
  EXPECT_EQ(AsciiTable::format(1.0, 0), "1");
}

TEST(TableTest, EmptyHeaderThrows) {
  EXPECT_THROW(AsciiTable({}), std::invalid_argument);
}

// ------------------------------------------------------------------ log.hpp

TEST(LogTest, LevelFiltering) {
  const LogLevel old = log_level();
  set_log_level(LogLevel::kError);
  EXPECT_EQ(log_level(), LogLevel::kError);
  log_info("this should be suppressed");  // no crash, no assertion
  set_log_level(old);
}

TEST(LogTest, OffSuppressesEverything) {
  const LogLevel old = log_level();
  set_log_level(LogLevel::kOff);
  log_error("suppressed");
  set_log_level(old);
  SUCCEED();
}

/// Installs a capturing sink for one test and restores the stderr default.
struct CapturingSink {
  std::vector<std::pair<LogLevel, std::string>> lines;
  LogLevel saved_level = log_level();

  CapturingSink() {
    set_log_sink([this](LogLevel level, std::string_view message) {
      lines.emplace_back(level, std::string(message));
    });
  }
  ~CapturingSink() {
    set_log_sink({});
    set_log_level(saved_level);
  }
};

TEST(LogTest, SinkReceivesOnlyMessagesAtOrAboveLevel) {
  CapturingSink sink;
  set_log_level(LogLevel::kWarn);
  log_debug("dropped debug");
  log_info("dropped info");
  log_warn("kept warn");
  log_error("kept error");
  ASSERT_EQ(sink.lines.size(), 2u);
  EXPECT_EQ(sink.lines[0].first, LogLevel::kWarn);
  EXPECT_EQ(sink.lines[0].second, "kept warn");
  EXPECT_EQ(sink.lines[1].first, LogLevel::kError);
  EXPECT_EQ(sink.lines[1].second, "kept error");
}

TEST(LogTest, OffLevelReachesNoSink) {
  CapturingSink sink;
  set_log_level(LogLevel::kOff);
  log_error("never seen");
  EXPECT_TRUE(sink.lines.empty());
}

TEST(LogTest, DebugLevelPassesEverythingWithConcatenation) {
  CapturingSink sink;
  set_log_level(LogLevel::kDebug);
  log_debug("x=", 42, " y=", 1.5);
  ASSERT_EQ(sink.lines.size(), 1u);
  EXPECT_EQ(sink.lines[0].second, "x=42 y=1.5");
}

TEST(LogTest, ParseLogLevelAcceptsCanonicalNames) {
  EXPECT_EQ(parse_log_level("debug"), LogLevel::kDebug);
  EXPECT_EQ(parse_log_level("info"), LogLevel::kInfo);
  EXPECT_EQ(parse_log_level("warn"), LogLevel::kWarn);
  EXPECT_EQ(parse_log_level("warning"), LogLevel::kWarn);
  EXPECT_EQ(parse_log_level("error"), LogLevel::kError);
  EXPECT_EQ(parse_log_level("off"), LogLevel::kOff);
}

TEST(LogTest, ParseLogLevelIsCaseInsensitive) {
  EXPECT_EQ(parse_log_level("DEBUG"), LogLevel::kDebug);
  EXPECT_EQ(parse_log_level("Info"), LogLevel::kInfo);
}

TEST(LogTest, ParseLogLevelRejectsUnknownNames) {
  EXPECT_EQ(parse_log_level("loud"), std::nullopt);
  EXPECT_EQ(parse_log_level(""), std::nullopt);
}

TEST(LogTest, LogLevelNameRoundTrips) {
  for (LogLevel level : {LogLevel::kDebug, LogLevel::kInfo, LogLevel::kWarn,
                         LogLevel::kError, LogLevel::kOff})
    EXPECT_EQ(parse_log_level(log_level_name(level)), level);
}

}  // namespace
}  // namespace earsonar
