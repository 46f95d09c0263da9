// Laplacian-score feature selection (paper §IV-C2: 105 features ranked by
// Laplacian score, top 25 kept). The score prefers features that respect the
// local manifold structure of the data: small score = better feature.
#pragma once

#include <cstddef>
#include <vector>

#include "ml/kmeans.hpp"

namespace earsonar::ml {

struct LaplacianConfig {
  std::size_t neighbors = 5;   ///< kNN graph degree
  double heat_sigma = 1.0;     ///< heat-kernel bandwidth multiplier (relative
                               ///< to the mean kNN distance)
};

/// Laplacian score per feature column of `data` (lower = more informative).
/// Each row's k = min(neighbors, rows - 1) nearest neighbours are taken by
/// squared Euclidean distance, ties broken by the lower row index; the graph
/// joins i and j when either is among the other's neighbours. Every value
/// must be finite. Cost: O(n^2 d) for the distances, O(n k d) for the scores.
std::vector<double> laplacian_scores(const Matrix& data, const LaplacianConfig& config = {});

/// Indices of the `count` best (lowest-score) features, in score order.
std::vector<std::size_t> select_best_features(const std::vector<double>& scores,
                                              std::size_t count);

/// Projects a feature vector onto `selected` columns.
std::vector<double> project_features(const std::vector<double>& features,
                                     const std::vector<std::size_t>& selected);

/// Projects every row of a matrix onto `selected` columns.
Matrix project_matrix(const Matrix& data, const std::vector<std::size_t>& selected);

}  // namespace earsonar::ml
