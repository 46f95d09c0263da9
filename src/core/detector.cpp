#include "core/detector.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "common/error.hpp"
#include "ml/hungarian.hpp"

namespace earsonar::core {

MeeDetector::MeeDetector(DetectorConfig config) : config_(config) {
  require(config.selected_features >= 1, "DetectorConfig: need >= 1 feature");
  require(config.kmeans.k == kMeeStateCount,
          "DetectorConfig: k-means must use k = 4 (four MEE states)");
}

void MeeDetector::fit(const ml::Matrix& features, const std::vector<std::size_t>& labels) {
  require_nonempty("MeeDetector features", features.size());
  require(features.size() == labels.size(), "MeeDetector: feature/label size mismatch");
  for (std::size_t label : labels)
    require(label < kMeeStateCount, "MeeDetector: label out of range");
  require(features.size() >= kMeeStateCount, "MeeDetector: too few samples");
  require(config_.selected_features <= features.front().size(),
          "MeeDetector: selected_features exceeds feature dimension");
  // A non-finite value would make its column's scaler mean NaN, and through
  // the pairwise distances every Laplacian score.
  for (std::size_t i = 0; i < features.size(); ++i)
    for (std::size_t j = 0; j < features[i].size(); ++j)
      if (!std::isfinite(features[i][j]))
        throw std::invalid_argument("MeeDetector: non-finite feature " + std::to_string(j) +
                                    " in training row " + std::to_string(i));

  // 1. Standardize.
  scaler_.fit(features);
  ml::Matrix scaled = scaler_.transform(features);

  // 2. Laplacian-score selection (unsupervised, §IV-C2).
  const std::vector<double> scores = ml::laplacian_scores(scaled, config_.laplacian);
  selected_ = ml::select_best_features(scores, config_.selected_features);
  ml::Matrix reduced = ml::project_matrix(scaled, selected_);

  // 3. Outlier pruning (§IV-C4) then k-means (§IV-C3).
  const ml::KMeans kmeans(config_.kmeans);
  std::vector<std::size_t> kept(reduced.size());
  for (std::size_t i = 0; i < kept.size(); ++i) kept[i] = i;
  if (config_.remove_outliers && reduced.size() > 4 * kMeeStateCount) {
    const ml::OutlierResult pruned =
        ml::remove_outliers_by_distance(reduced, kmeans, config_.outlier);
    if (pruned.kept.size() >= kMeeStateCount) kept = pruned.kept;
  }
  ml::Matrix training;
  training.reserve(kept.size());
  for (std::size_t idx : kept) training.push_back(reduced[idx]);

  ml::KMeansResult clusters;
  if (config_.seed_with_class_means) {
    // Initial centers "given according to the four different states": the
    // per-state means of the (outlier-pruned) training data, refined by
    // Lloyd iterations.
    ml::Matrix means(kMeeStateCount,
                     std::vector<double>(training.front().size(), 0.0));
    std::vector<std::size_t> counts(kMeeStateCount, 0);
    for (std::size_t i = 0; i < kept.size(); ++i) {
      const std::size_t cls = labels[kept[i]];
      counts[cls]++;
      for (std::size_t j = 0; j < training[i].size(); ++j)
        means[cls][j] += training[i][j];
    }
    for (std::size_t c = 0; c < kMeeStateCount; ++c) {
      require(counts[c] > 0, "MeeDetector: a state has no training samples");
      for (double& v : means[c]) v /= static_cast<double>(counts[c]);
    }
    clusters = kmeans.fit_with_init(training, means);
  } else {
    clusters = kmeans.fit(training);
  }
  centroids_ = clusters.centroids;

  // 4. Optimal cluster -> state mapping against the training ground truth.
  std::vector<std::vector<std::size_t>> contingency(
      kMeeStateCount, std::vector<std::size_t>(kMeeStateCount, 0));
  for (std::size_t i = 0; i < kept.size(); ++i)
    contingency[clusters.labels[i]][labels[kept[i]]]++;
  cluster_to_state_ = ml::best_cluster_to_label(contingency);
}

Diagnosis MeeDetector::predict(const std::vector<double>& features) const {
  require(fitted(), "MeeDetector: predict before fit");
  const std::vector<double> scaled = scaler_.transform(features);
  const std::vector<double> reduced = ml::project_features(scaled, selected_);

  // Distance to every centroid; winner plus margin-based confidence.
  double best = std::numeric_limits<double>::max();
  double second = std::numeric_limits<double>::max();
  std::size_t best_cluster = 0;
  for (std::size_t c = 0; c < centroids_.size(); ++c) {
    const double d = ml::euclidean_distance(centroids_[c], reduced);
    if (d < best) {
      second = best;
      best = d;
      best_cluster = c;
    } else if (d < second) {
      second = d;
    }
  }

  Diagnosis result;
  result.state = cluster_to_state_[best_cluster];
  result.distance = best;
  result.confidence = second > 0.0 ? std::clamp(1.0 - best / second, 0.0, 1.0) : 0.0;
  return result;
}

}  // namespace earsonar::core
