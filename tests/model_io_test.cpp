// Detector-model persistence: round trips of a fitted detector, and
// hardening. A serving engine reloads model files while requests are in
// flight, so every malformed file — however it got malformed (truncated
// upload, version skew, NaN from a broken training run) — must throw cleanly
// at load time, never poison predictions.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/model_io.hpp"

using namespace earsonar;

namespace {

// A minimal self-consistent model file (3 raw features, 2 selected, 2
// clusters). Variants below break it one way at a time.
const std::string kValidModel =
    "earsonar-model 1\n"
    "scaler_mean 3 0 1 2\n"
    "scaler_std 3 1 1 1\n"
    "selected 2 0 2\n"
    "centroids 2 2\n"
    "0 0\n"
    "1 1\n"
    "mapping 2 0 1\n";

core::DetectorModel load_text(const std::string& text) {
  std::istringstream in(text);
  return core::load_detector(in);
}

core::DetectorModel valid_model() { return load_text(kValidModel); }

}  // namespace

TEST(ModelIoHardeningTest, ValidHandcraftedModelLoads) {
  const core::DetectorModel model = valid_model();
  EXPECT_EQ(model.feature_dimension(), 3u);
  EXPECT_EQ(model.selected_features.size(), 2u);
  EXPECT_EQ(model.centroids.size(), 2u);
  const core::Diagnosis d = model.predict({0.0, 1.0, 2.0});
  EXPECT_LT(d.state, core::kMeeStateCount);
}

TEST(ModelIoHardeningTest, TruncationAtEveryByteThrowsCleanly) {
  // Chop the file at every prefix length; each prefix must either be caught
  // as malformed or (for a handful of lengths that happen to end exactly at
  // the final newline) load fine — never crash, never return a half-model.
  for (std::size_t len = 0; len + 1 < kValidModel.size(); ++len) {
    SCOPED_TRACE("prefix length " + std::to_string(len));
    EXPECT_THROW(load_text(kValidModel.substr(0, len)), std::runtime_error);
  }
}

TEST(ModelIoHardeningTest, WrongVersionRejected) {
  std::string text = kValidModel;
  text.replace(text.find(" 1\n"), 3, " 2\n");
  EXPECT_THROW(load_text(text), std::runtime_error);
}

TEST(ModelIoHardeningTest, WrongMagicRejected) {
  EXPECT_THROW(load_text("other-model 1\n"), std::runtime_error);
}

TEST(ModelIoHardeningTest, NanCentroidTextRejected) {
  std::string text = kValidModel;
  text.replace(text.find("1 1\n"), 4, "nan 1\n");
  EXPECT_THROW(load_text(text), std::runtime_error);
}

TEST(ModelIoHardeningTest, NanScalerTextRejected) {
  std::string text = kValidModel;
  text.replace(text.find("scaler_std 3 1"), 14, "scaler_std 3 nan");
  EXPECT_THROW(load_text(text), std::runtime_error);
}

TEST(ModelIoHardeningTest, ValidateRejectsNanCentroid) {
  core::DetectorModel model = valid_model();
  model.centroids[1][0] = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(core::validate_model(model), std::runtime_error);
}

TEST(ModelIoHardeningTest, ValidateRejectsInfiniteScalerMean) {
  core::DetectorModel model = valid_model();
  model.scaler_mean[0] = std::numeric_limits<double>::infinity();
  EXPECT_THROW(core::validate_model(model), std::runtime_error);
}

TEST(ModelIoHardeningTest, ValidateRejectsNegativeScalerStd) {
  core::DetectorModel model = valid_model();
  model.scaler_std[2] = -1.0;
  EXPECT_THROW(core::validate_model(model), std::runtime_error);
}

TEST(ModelIoHardeningTest, ValidateRejectsSelectedIndexOutOfRange) {
  core::DetectorModel model = valid_model();
  model.selected_features[1] = 99;
  EXPECT_THROW(core::validate_model(model), std::runtime_error);
}

TEST(ModelIoHardeningTest, ValidateRejectsCentroidDimensionMismatch) {
  core::DetectorModel model = valid_model();
  model.centroids[0].push_back(0.0);
  EXPECT_THROW(core::validate_model(model), std::runtime_error);
}

TEST(ModelIoHardeningTest, ValidateRejectsMappingSizeMismatch) {
  core::DetectorModel model = valid_model();
  model.cluster_to_state.push_back(0);
  EXPECT_THROW(core::validate_model(model), std::runtime_error);
}

TEST(ModelIoHardeningTest, ValidateRejectsStateOutOfRange) {
  core::DetectorModel model = valid_model();
  model.cluster_to_state[0] = core::kMeeStateCount;
  EXPECT_THROW(core::validate_model(model), std::runtime_error);
}

TEST(ModelIoHardeningTest, ValidateAcceptsGoodModel) {
  EXPECT_NO_THROW(core::validate_model(valid_model()));
}

TEST(ModelIoHardeningTest, ScalerMeanStdSizeMismatchRejected) {
  core::DetectorModel model = valid_model();
  model.scaler_std.pop_back();
  EXPECT_THROW(core::validate_model(model), std::runtime_error);
}

// Round trips of a fitted detector through the stream and file forms.
class ModelIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(5);
    for (std::size_t c = 0; c < core::kMeeStateCount; ++c)
      for (int i = 0; i < 20; ++i) {
        std::vector<double> row(12);
        for (double& v : row) v = static_cast<double>(c) * 2.0 + rng.normal(0, 0.2);
        features_.push_back(row);
        labels_.push_back(c);
      }
    core::DetectorConfig cfg;
    cfg.selected_features = 6;
    detector_ = std::make_unique<core::MeeDetector>(cfg);
    detector_->fit(features_, labels_);
  }

  ml::Matrix features_;
  std::vector<std::size_t> labels_;
  std::unique_ptr<core::MeeDetector> detector_;
};

TEST_F(ModelIoTest, StreamRoundTripPreservesPredictions) {
  std::stringstream stream;
  core::save_detector(*detector_, stream);
  const core::DetectorModel model = core::load_detector(stream);
  for (std::size_t i = 0; i < features_.size(); ++i) {
    const auto a = detector_->predict(features_[i]);
    const auto b = model.predict(features_[i]);
    EXPECT_EQ(a.state, b.state) << i;
    EXPECT_NEAR(a.distance, b.distance, 1e-9);
    EXPECT_NEAR(a.confidence, b.confidence, 1e-9);
  }
}

TEST_F(ModelIoTest, FileRoundTrip) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "earsonar_model_test.txt").string();
  core::save_detector_file(*detector_, path);
  const core::DetectorModel model = core::load_detector_file(path);
  EXPECT_EQ(model.feature_dimension(), 12u);
  EXPECT_EQ(model.selected_features.size(), 6u);
  EXPECT_EQ(model.centroids.size(), core::kMeeStateCount);
  std::filesystem::remove(path);
}

TEST_F(ModelIoTest, SnapshotMatchesAccessors) {
  const core::DetectorModel model = core::snapshot(*detector_);
  EXPECT_EQ(model.scaler_mean, detector_->scaler_means());
  EXPECT_EQ(model.selected_features, detector_->selected_features());
  EXPECT_EQ(model.centroids, detector_->centroids());
}

TEST_F(ModelIoTest, UnfittedDetectorRejected) {
  core::MeeDetector empty;
  std::stringstream stream;
  EXPECT_THROW(core::save_detector(empty, stream), std::invalid_argument);
}

TEST(ModelIoErrorsTest, BadMagicRejected) {
  std::stringstream stream("not-a-model 1\n");
  EXPECT_THROW(core::load_detector(stream), std::runtime_error);
}

TEST(ModelIoErrorsTest, BadVersionRejected) {
  std::stringstream stream("earsonar-model 99\n");
  EXPECT_THROW(core::load_detector(stream), std::runtime_error);
}

TEST(ModelIoErrorsTest, TruncatedFileRejected) {
  std::stringstream stream("earsonar-model 1\nscaler_mean 5 1.0 2.0\n");
  EXPECT_THROW(core::load_detector(stream), std::runtime_error);
}

TEST(ModelIoErrorsTest, MissingFileRejected) {
  EXPECT_THROW(core::load_detector_file("/nonexistent/model.txt"), std::runtime_error);
}
