// Differential oracle for Laplacian-score feature selection, bit-exact:
//
//   ml.laplacian — ml::laplacian_scores (symmetrized kNN graph as per-row
//     edge lists, degree and smoothness summed over the edges only) vs
//     check::laplacian_scores_naive (dense n x n distance and weight
//     matrices, every row fully sorted, sums over all n^2 pairs): every score
//     equal bit for bit.
//
// Inputs: the standardized features of a simulated cohort (what
// MeeDetector::fit scores), a matrix of duplicated rows (exact distance ties,
// including distance-0 ties with a non-self row), neighbour counts that clamp
// to n - 1, and a constant feature whose score stays at the maximum.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "check/reference.hpp"
#include "common/rng.hpp"
#include "core/pipeline.hpp"
#include "ml/laplacian.hpp"
#include "ml/scaler.hpp"
#include "sim/dataset.hpp"

namespace earsonar {
namespace {

void expect_same_scores(const ml::Matrix& data, const ml::LaplacianConfig& config,
                        const std::string& label) {
  const std::vector<double> got = ml::laplacian_scores(data, config);
  const std::vector<double> want = check::laplacian_scores_naive(data, config);
  ASSERT_EQ(got.size(), want.size()) << label;
  for (std::size_t f = 0; f < got.size(); ++f)
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got[f]), std::bit_cast<std::uint64_t>(want[f]))
        << label << " feature " << f << ": " << got[f] << " vs " << want[f];
}

// 32 subjects, one 10-chirp session per state, through the default pipeline
// and standardized the way MeeDetector::fit does before scoring.
ml::Matrix standardized_cohort() {
  sim::CohortConfig config;
  config.subject_count = 32;
  config.sessions_per_state = 1;
  config.seed = 5;
  config.probe.chirp_count = 10;
  const core::EarSonar pipeline;
  ml::Matrix features;
  for (const sim::SessionRecording& rec : sim::CohortGenerator(config).generate()) {
    const core::EchoAnalysis analysis = pipeline.analyze(rec.waveform);
    if (analysis.usable()) features.push_back(analysis.features);
  }
  ml::StandardScaler scaler;
  scaler.fit(features);
  return scaler.transform(features);
}

TEST(OracleLaplacianTest, StandardizedCohortMatchesNaive) {
  const ml::Matrix data = standardized_cohort();
  ASSERT_GE(data.size(), 100u);
  ASSERT_EQ(data.front().size(), 105u);
  for (std::size_t neighbors : {1, 5, 12})
    expect_same_scores(data, {neighbors, 1.0}, "k=" + std::to_string(neighbors));
  expect_same_scores(data, {5, 0.25}, "heat_sigma=0.25");
}

// Each of 8 distinct points appears 3 times, so every row has two other rows
// at distance 0 and the next neighbours come in tied triples: k = 1, 2, 3 and
// 5 cut through a tie, which only the (distance, index) order decides.
TEST(OracleLaplacianTest, DuplicateRowsBreakTiesByIndex) {
  Rng rng(0x1a91ac1a);
  ml::Matrix points;
  for (int p = 0; p < 8; ++p)
    points.push_back({rng.normal(0.0, 1.0), rng.normal(0.0, 1.0), rng.uniform(-2.0, 2.0)});
  ml::Matrix data;
  for (int copy = 0; copy < 3; ++copy)
    for (const std::vector<double>& p : points) data.push_back(p);
  for (std::size_t neighbors : {1, 2, 3, 5, 7})
    expect_same_scores(data, {neighbors, 1.0}, "k=" + std::to_string(neighbors));

  // Equidistant integer grid: many exact ties at distances above zero too.
  ml::Matrix grid;
  for (int a = 0; a < 4; ++a)
    for (int b = 0; b < 4; ++b) grid.push_back({double(a), double(b), double((a * b) % 3)});
  for (std::size_t neighbors : {1, 3, 4, 6})
    expect_same_scores(grid, {neighbors, 1.0}, "grid k=" + std::to_string(neighbors));
}

TEST(OracleLaplacianTest, NeighborsClampToAllOtherRows) {
  Rng rng(0xc1a4b);
  ml::Matrix data(9, std::vector<double>(4));
  for (std::vector<double>& row : data)
    for (double& v : row) v = rng.normal(0.0, 1.0);
  for (std::size_t neighbors : {8, 9, 100})
    expect_same_scores(data, {neighbors, 1.0}, "k=" + std::to_string(neighbors));
  expect_same_scores({{0.0, 1.0}, {2.0, -1.0}}, {5, 1.0}, "two rows");
}

TEST(OracleLaplacianTest, ConstantFeatureKeepsMaxScore) {
  Rng rng(0xc0575a);
  ml::Matrix data;
  for (int i = 0; i < 40; ++i) data.push_back({rng.normal(0.0, 1.0), 7.0, rng.uniform(0, 1)});
  expect_same_scores(data, {}, "constant column");
  EXPECT_EQ(ml::laplacian_scores(data)[1], std::numeric_limits<double>::max());
}

}  // namespace
}  // namespace earsonar
