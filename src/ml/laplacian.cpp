#include "ml/laplacian.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/error.hpp"

namespace earsonar::ml {

std::vector<double> laplacian_scores(const Matrix& data, const LaplacianConfig& config) {
  require_nonempty("laplacian data", data.size());
  require(config.neighbors >= 1, "LaplacianConfig: neighbors must be >= 1");
  require(config.heat_sigma > 0.0, "LaplacianConfig: heat_sigma must be > 0");
  const std::size_t n = data.size();
  const std::size_t d = data.front().size();
  require_nonempty("laplacian feature dimension", d);
  for (const auto& row : data) {
    require(row.size() == d, "laplacian_scores: ragged matrix");
    require(std::all_of(row.begin(), row.end(), [](double v) { return std::isfinite(v); }),
            "laplacian_scores: non-finite value");
  }
  require(n >= 2, "laplacian_scores: need >= 2 samples");

  const std::size_t k = std::min(config.neighbors, n - 1);

  // Pairwise squared distances from a column-major copy of the data. Row i
  // accumulates feature by feature into every j > i at once: each entry sums
  // (x_i - x_j)^2 in squared_distance's order and so has its bits, and the j
  // loop vectorizes without reassociating any sum. The lower triangle is a
  // copy, so the matrix is exactly symmetric.
  std::vector<double> columns(d * n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t f = 0; f < d; ++f) columns[f * n + i] = data[i][f];
  std::vector<double> dist(n * n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    double* row = &dist[i * n];
    for (std::size_t f = 0; f < d; ++f) {
      const double* column = &columns[f * n];
      const double xi = column[i];
      for (std::size_t j = i + 1; j < n; ++j) {
        const double diff = xi - column[j];
        row[j] += diff * diff;
      }
    }
    for (std::size_t j = i + 1; j < n; ++j) dist[j * n + i] = row[j];
  }

  // The k nearest neighbours of each row, self excluded, ordered by
  // (distance, index): a bounded insertion over ascending j, so an equal
  // distance never displaces a lower index.
  std::vector<std::size_t> knn(n * k);
  double mean_knn_dist2 = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double* di = &dist[i * n];
    std::size_t* nearest = &knn[i * k];
    std::size_t filled = 0;
    for (std::size_t j = 0; j < n; ++j) {
      if (j == i || (filled == k && !(di[j] < di[nearest[k - 1]]))) continue;
      std::size_t pos = filled < k ? filled++ : k - 1;
      for (; pos > 0 && di[j] < di[nearest[pos - 1]]; --pos) nearest[pos] = nearest[pos - 1];
      nearest[pos] = j;
    }
    for (std::size_t q = 0; q < k; ++q) mean_knn_dist2 += di[nearest[q]];
  }
  mean_knn_dist2 = std::max(mean_knn_dist2 / static_cast<double>(n * k), 1e-12);
  const double t = config.heat_sigma * mean_knn_dist2;

  // The symmetrized kNN graph as per-row edge lists in ascending j, with
  // heat-kernel weights. Off the graph the weight is zero, and each such
  // term of a sum below would add +0.0 to a non-negative sum (the input is
  // finite), so summing only the edges in ascending j gives the dense sums'
  // bits.
  struct Edge {
    std::size_t j;
    double weight;
  };
  std::vector<std::vector<Edge>> graph(n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t q = 0; q < k; ++q) {
      const std::size_t j = knn[i * k + q];
      const double weight = std::exp(-dist[i * n + j] / t);
      graph[i].push_back({j, weight});
      graph[j].push_back({i, weight});
    }
  for (std::vector<Edge>& edges : graph) {
    std::sort(edges.begin(), edges.end(),
              [](const Edge& a, const Edge& b) { return a.j < b.j; });
    edges.erase(std::unique(edges.begin(), edges.end(),
                            [](const Edge& a, const Edge& b) { return a.j == b.j; }),
                edges.end());
  }

  std::vector<double> degree(n, 0.0);
  double total_degree = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    for (const Edge& e : graph[i]) degree[i] += e.weight;
    total_degree += degree[i];
  }

  std::vector<double> scores(d, std::numeric_limits<double>::max());
  std::vector<double> centered(n);
  for (std::size_t f = 0; f < d; ++f) {
    // Center the feature against the degree-weighted mean (removes the
    // trivial all-ones eigenvector of the graph Laplacian).
    const double* column = &columns[f * n];
    double weighted_mean = 0.0;
    for (std::size_t i = 0; i < n; ++i) weighted_mean += column[i] * degree[i];
    weighted_mean /= std::max(total_degree, 1e-12);
    for (std::size_t i = 0; i < n; ++i) centered[i] = column[i] - weighted_mean;

    double smoothness = 0.0;  // f~^T L f~  = sum_ij w_ij (fi - fj)^2 / 2
    double variance = 0.0;    // f~^T D f~
    for (std::size_t i = 0; i < n; ++i) {
      const double fi = centered[i];
      variance += fi * fi * degree[i];
      for (const Edge& e : graph[i]) {
        const double diff = fi - centered[e.j];
        smoothness += e.weight * diff * diff;
      }
    }
    smoothness /= 2.0;
    // Constant features carry no information: keep score at +inf-like max.
    if (variance > 1e-12) scores[f] = smoothness / variance;
  }
  return scores;
}

std::vector<std::size_t> select_best_features(const std::vector<double>& scores,
                                              std::size_t count) {
  require_nonempty("scores", scores.size());
  require(count >= 1 && count <= scores.size(),
          "select_best_features: count out of range");
  std::vector<std::size_t> order(scores.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) { return scores[a] < scores[b]; });
  order.resize(count);
  return order;
}

std::vector<double> project_features(const std::vector<double>& features,
                                     const std::vector<std::size_t>& selected) {
  std::vector<double> out;
  out.reserve(selected.size());
  for (std::size_t idx : selected) {
    require(idx < features.size(), "project_features: index out of range");
    out.push_back(features[idx]);
  }
  return out;
}

Matrix project_matrix(const Matrix& data, const std::vector<std::size_t>& selected) {
  Matrix out;
  out.reserve(data.size());
  for (const auto& row : data) out.push_back(project_features(row, selected));
  return out;
}

}  // namespace earsonar::ml
