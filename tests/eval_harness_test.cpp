// Focused tests for the evaluation harness: group handling in LOOCV,
// transfer evaluation semantics, training-size sweep composition, and the
// energy model arithmetic.
#include <gtest/gtest.h>

#include <set>

#include "common/rng.hpp"
#include "eval/energy.hpp"
#include "eval/experiment.hpp"

namespace earsonar {
namespace {

// A synthetic feature dataset with known per-class structure — no audio, so
// these tests isolate the harness logic itself.
eval::EvalDataset synthetic_dataset(std::size_t subjects, std::size_t per_state,
                                    std::uint64_t seed, double sigma = 0.2) {
  Rng rng(seed);
  eval::EvalDataset ds;
  for (std::size_t subject = 0; subject < subjects; ++subject) {
    for (std::size_t cls = 0; cls < core::kMeeStateCount; ++cls) {
      for (std::size_t s = 0; s < per_state; ++s) {
        std::vector<double> row(8);
        for (double& v : row) v = static_cast<double>(cls) * 2.0 + rng.normal(0, sigma);
        ds.features.push_back(row);
        ds.labels.push_back(cls);
        ds.groups.push_back(subject);
      }
    }
  }
  return ds;
}

core::DetectorConfig small_detector() {
  core::DetectorConfig cfg;
  cfg.selected_features = 4;
  return cfg;
}

TEST(EvalHarnessTest, LoocvCoversEverySampleOnce) {
  const auto ds = synthetic_dataset(6, 2, 1);
  const ml::ConfusionMatrix cm = eval::loocv_earsonar(ds, small_detector());
  EXPECT_EQ(cm.total(), ds.size());
}

TEST(EvalHarnessTest, LoocvOnSeparableDataIsNearPerfect) {
  const auto ds = synthetic_dataset(8, 2, 2, /*sigma=*/0.1);
  const ml::ConfusionMatrix cm = eval::loocv_earsonar(ds, small_detector());
  EXPECT_GT(cm.accuracy(), 0.95);
}

TEST(EvalHarnessTest, LoocvOnNoiseIsNearChance) {
  // Labels carry no signal: features are pure noise.
  Rng rng(3);
  eval::EvalDataset ds;
  for (std::size_t subject = 0; subject < 10; ++subject)
    for (std::size_t cls = 0; cls < 4; ++cls)
      for (int s = 0; s < 2; ++s) {
        std::vector<double> row(8);
        for (double& v : row) v = rng.normal(0, 1);
        ds.features.push_back(row);
        ds.labels.push_back(cls);
        ds.groups.push_back(subject);
      }
  const ml::ConfusionMatrix cm = eval::loocv_earsonar(ds, small_detector());
  EXPECT_LT(cm.accuracy(), 0.5);  // 4 classes, chance = 0.25
}

TEST(EvalHarnessTest, TransferUsesTrainOnlyForFitting) {
  // Train and test have *different* class centers; accuracy on the test set
  // must reflect the train-set geometry (i.e., be poor), proving no leakage.
  const auto train = synthetic_dataset(6, 2, 4, 0.1);
  auto test = synthetic_dataset(4, 2, 5, 0.1);
  for (auto& row : test.features)
    for (double& v : row) v += 40.0;  // shift all test points far away
  const ml::ConfusionMatrix cm = eval::transfer_earsonar(train, test, small_detector());
  EXPECT_EQ(cm.total(), test.size());
  // All shifted points collapse onto the nearest (highest) train centroid.
  EXPECT_LT(cm.accuracy(), 0.5);
}

TEST(EvalHarnessTest, TransferMatchingDistributionsWorks) {
  const auto train = synthetic_dataset(6, 2, 6, 0.15);
  const auto test = synthetic_dataset(3, 2, 7, 0.15);
  const ml::ConfusionMatrix cm = eval::transfer_earsonar(train, test, small_detector());
  EXPECT_GT(cm.accuracy(), 0.9);
}

TEST(EvalHarnessTest, SweepAccuraciesMatchFractionCount) {
  const auto ds = synthetic_dataset(10, 2, 8, 0.15);
  const std::vector<double> fractions{0.25, 0.5, 0.75, 1.0};
  const auto accs = eval::training_size_sweep(ds, fractions, small_detector(), 0.3, 9);
  ASSERT_EQ(accs.size(), fractions.size());
  // Full data should do at least as well as a quarter (within noise).
  EXPECT_GE(accs.back() + 0.15, accs.front());
}

TEST(EvalHarnessTest, SweepHoldoutBoundsEnforced) {
  const auto ds = synthetic_dataset(6, 1, 10);
  EXPECT_THROW(
      eval::training_size_sweep(ds, {0.5}, small_detector(), 0.95, 1),
      std::invalid_argument);
  EXPECT_THROW(
      eval::training_size_sweep(ds, {0.5}, small_detector(), 0.01, 1),
      std::invalid_argument);
}

TEST(EvalHarnessTest, EmptyDatasetRejected) {
  eval::EvalDataset empty;
  EXPECT_THROW(eval::loocv_earsonar(empty, small_detector()), std::invalid_argument);
}

TEST(EvalHarnessTest, DatasetSizeHelper) {
  const auto ds = synthetic_dataset(2, 3, 11);
  EXPECT_EQ(ds.size(), 2u * 4u * 3u);
}

// --------------------------------------------------------------- energy

TEST(EvalEnergyTest, EnergyScalesLinearlyWithLatency) {
  const auto phones = eval::paper_phone_profiles();
  core::StageTimings fast, slow;
  fast[pipeline::StageId::kFeatures] = 10.0;
  slow[pipeline::StageId::kFeatures] = 20.0;
  for (const auto& phone : phones) {
    EXPECT_NEAR(eval::detection_energy_mj(phone, slow),
                2.0 * eval::detection_energy_mj(phone, fast), 1e-9);
  }
}

TEST(EvalEnergyTest, HigherPowerPhoneCostsMore) {
  const auto phones = eval::paper_phone_profiles();
  core::StageTimings t;
  t[pipeline::StageId::kFeatures] = 30.0;
  // MI 10 (2243 mW) > Huawei (2100 mW).
  EXPECT_GT(eval::detection_energy_mj(phones[2], t),
            eval::detection_energy_mj(phones[0], t));
}

TEST(EvalEnergyTest, ZeroLatencyDetectionRejectedForChargeMath) {
  const auto phones = eval::paper_phone_profiles();
  core::StageTimings zero;
  EXPECT_THROW(eval::detections_per_charge(phones[0], zero, 1000.0),
               std::invalid_argument);
}

}  // namespace
}  // namespace earsonar
