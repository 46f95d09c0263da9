// MEE detection head (paper §IV-C3-C4): feature standardization,
// Laplacian-score selection of the top 25 of 105 features, outlier-pruned
// k-means clustering into four clusters, and an optimal cluster -> state
// mapping fitted against the training ground truth (the paper evaluates its
// clusters against otoscope labels the same way).
#pragma once

#include <array>
#include <cstddef>
#include <string>
#include <vector>

#include "ml/kmeans.hpp"
#include "ml/laplacian.hpp"
#include "ml/outlier.hpp"
#include "ml/scaler.hpp"

namespace earsonar::core {

/// Label space: indices 0..3 = Clear, Serous, Mucoid, Purulent.
inline constexpr std::size_t kMeeStateCount = 4;
inline constexpr std::array<const char*, kMeeStateCount> kMeeStateNames{
    "Clear", "Serous", "Mucoid", "Purulent"};

struct DetectorConfig {
  std::size_t selected_features = 25;
  ml::KMeansConfig kmeans{.k = kMeeStateCount, .restarts = 12, .seed = 17};
  ml::LaplacianConfig laplacian{};
  ml::OutlierConfig outlier{};
  bool remove_outliers = true;
  /// Paper §IV-C3: "we have given four cluster centers according to the four
  /// different states" — seed k-means at the per-state means of the training
  /// data instead of k-means++ (which is kept for ablation).
  bool seed_with_class_means = true;
};

struct Diagnosis {
  std::size_t state = 0;       ///< index into kMeeStateNames
  double distance = 0.0;       ///< Euclidean distance to the winning centroid
  double confidence = 0.0;     ///< margin-based confidence in [0, 1]
};

class MeeDetector {
 public:
  explicit MeeDetector(DetectorConfig config = {});

  /// Fits scaler, feature selection, clustering, and the cluster -> state
  /// mapping on labeled training features (labels in [0, 4)). Throws
  /// std::invalid_argument on a non-finite feature.
  void fit(const ml::Matrix& features, const std::vector<std::size_t>& labels);

  /// Diagnoses one feature vector (dimension = training dimension).
  [[nodiscard]] Diagnosis predict(const std::vector<double>& features) const;

  [[nodiscard]] bool fitted() const { return !centroids_.empty(); }
  [[nodiscard]] const std::vector<std::size_t>& selected_features() const {
    return selected_;
  }
  [[nodiscard]] const std::vector<double>& scaler_means() const {
    return scaler_.means();
  }
  [[nodiscard]] const std::vector<double>& scaler_stds() const {
    return scaler_.stds();
  }
  [[nodiscard]] const ml::Matrix& centroids() const { return centroids_; }
  [[nodiscard]] const std::vector<std::size_t>& cluster_to_state() const {
    return cluster_to_state_;
  }
  [[nodiscard]] const DetectorConfig& config() const { return config_; }

 private:
  DetectorConfig config_;
  ml::StandardScaler scaler_;
  std::vector<std::size_t> selected_;
  ml::Matrix centroids_;
  std::vector<std::size_t> cluster_to_state_;
};

}  // namespace earsonar::core
