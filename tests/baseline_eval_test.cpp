// Baseline (Chan et al.-style) detector and evaluation-harness tests.
#include <gtest/gtest.h>

#include "baseline/chan.hpp"
#include "eval/energy.hpp"
#include "eval/experiment.hpp"
#include "sim/dataset.hpp"

namespace earsonar {
namespace {

sim::CohortConfig small_cohort(std::size_t subjects = 8) {
  sim::CohortConfig cc;
  cc.subject_count = subjects;
  cc.sessions_per_state = 1;
  cc.probe.chirp_count = 10;
  return cc;
}

// ---------------------------------------------------------------- baseline

TEST(ChanTest, FeatureDimension) {
  baseline::ChanDetector chan;
  EXPECT_EQ(chan.feature_dimension(), 10u);  // 8 bands + dip freq + dip depth
}

TEST(ChanTest, ExtractsFeaturesFromRecording) {
  const auto recs = sim::CohortGenerator(small_cohort(1)).generate();
  baseline::ChanDetector chan;
  const auto features = chan.extract_features(recs[0].waveform);
  EXPECT_EQ(features.size(), chan.feature_dimension());
  for (double f : features) EXPECT_TRUE(std::isfinite(f));
}

TEST(ChanTest, FitPredictOnSimulatedData) {
  const auto recs = sim::CohortGenerator(small_cohort(6)).generate();
  std::vector<audio::Waveform> waves;
  std::vector<std::size_t> labels;
  for (const auto& r : recs) {
    waves.push_back(r.waveform);
    labels.push_back(sim::state_index(r.state));
  }
  baseline::ChanDetector chan;
  chan.fit(waves, labels);
  EXPECT_TRUE(chan.fitted());
  std::size_t correct = 0;
  for (std::size_t i = 0; i < waves.size(); ++i)
    if (chan.predict(waves[i]) == labels[i]) ++correct;
  EXPECT_GT(static_cast<double>(correct) / waves.size(), 0.7);
}

TEST(ChanTest, PredictBeforeFitThrows) {
  baseline::ChanDetector chan;
  const std::vector<double> features(chan.feature_dimension(), 0.0);
  EXPECT_THROW(chan.predict_features(features), std::invalid_argument);
}

TEST(ChanTest, ShortRecordingThrows) {
  baseline::ChanDetector chan;
  const audio::Waveform tiny = audio::Waveform::silence(100, 48000.0);
  EXPECT_THROW(chan.extract_features(tiny), std::invalid_argument);
}

TEST(ChanTest, ConfigValidation) {
  baseline::ChanConfig cfg;
  cfg.coarse_bands = 1;
  EXPECT_THROW(baseline::ChanDetector{cfg}, std::invalid_argument);
}

// -------------------------------------------------------------- experiment

TEST(ExperimentTest, DatasetBuildersProduceAlignedArrays) {
  const auto recs = sim::CohortGenerator(small_cohort(4)).generate();
  core::EarSonar pipeline;
  const eval::EvalDataset es = eval::build_earsonar_dataset(recs, pipeline);
  EXPECT_EQ(es.features.size(), es.labels.size());
  EXPECT_EQ(es.features.size(), es.groups.size());
  EXPECT_EQ(es.size() + es.skipped, recs.size());

  baseline::ChanDetector chan;
  const eval::EvalDataset cd = eval::build_chan_dataset(recs, chan);
  EXPECT_EQ(cd.size(), recs.size());
}

TEST(ExperimentTest, LoocvProducesFullConfusion) {
  const auto recs = sim::CohortGenerator(small_cohort(6)).generate();
  core::EarSonar pipeline;
  const eval::EvalDataset ds = eval::build_earsonar_dataset(recs, pipeline);
  const ml::ConfusionMatrix cm = eval::loocv_earsonar(ds, core::DetectorConfig{});
  EXPECT_EQ(cm.total(), ds.size());
  EXPECT_GT(cm.accuracy(), 0.5);  // separable even with 6 subjects
}

TEST(ExperimentTest, LoocvChanRunsAndScores) {
  const auto recs = sim::CohortGenerator(small_cohort(6)).generate();
  baseline::ChanDetector chan;
  const eval::EvalDataset ds = eval::build_chan_dataset(recs, chan);
  const ml::ConfusionMatrix cm = eval::loocv_chan(ds, baseline::ChanConfig{});
  EXPECT_EQ(cm.total(), ds.size());
  EXPECT_GT(cm.accuracy(), 0.3);
}

TEST(ExperimentTest, TransferTrainsOnOneTestsOnOther) {
  auto cfg = small_cohort(6);
  const auto train_recs = sim::CohortGenerator(cfg).generate();
  cfg.seed = 77;
  const auto test_recs = sim::CohortGenerator(cfg).generate();
  core::EarSonar pipeline;
  const eval::EvalDataset train = eval::build_earsonar_dataset(train_recs, pipeline);
  const eval::EvalDataset test = eval::build_earsonar_dataset(test_recs, pipeline);
  const ml::ConfusionMatrix cm = eval::transfer_earsonar(train, test, {});
  EXPECT_EQ(cm.total(), test.size());
}

TEST(ExperimentTest, TrainingSizeSweepReturnsOneAccuracyPerFraction) {
  const auto recs = sim::CohortGenerator(small_cohort(8)).generate();
  core::EarSonar pipeline;
  const eval::EvalDataset ds = eval::build_earsonar_dataset(recs, pipeline);
  const auto accs = eval::training_size_sweep(ds, {0.5, 1.0}, {}, 0.25, 3);
  ASSERT_EQ(accs.size(), 2u);
  for (double a : accs) {
    EXPECT_GE(a, 0.0);
    EXPECT_LE(a, 1.0);
  }
}

TEST(ExperimentTest, SweepRejectsBadFractions) {
  const auto recs = sim::CohortGenerator(small_cohort(4)).generate();
  core::EarSonar pipeline;
  const eval::EvalDataset ds = eval::build_earsonar_dataset(recs, pipeline);
  EXPECT_THROW(eval::training_size_sweep(ds, {0.0}, {}, 0.25, 3), std::invalid_argument);
}

// ------------------------------------------------------------------ energy

TEST(EnergyTest, PaperProfilesPresent) {
  const auto phones = eval::paper_phone_profiles();
  ASSERT_EQ(phones.size(), 3u);
  EXPECT_EQ(phones[0].name, "Huawei");
  EXPECT_DOUBLE_EQ(phones[0].active_power_mw, 2100.0);
  EXPECT_DOUBLE_EQ(phones[2].active_power_mw, 2243.0);
}

TEST(EnergyTest, EnergyIsPowerTimesTime) {
  eval::PhonePowerProfile phone{"Test", 2000.0, 500.0};
  core::StageTimings t;
  t[pipeline::StageId::kFilter] = 1.0;
  t[pipeline::StageId::kFeatures] = 36.0;
  t[pipeline::StageId::kInference] = 1.2;
  // 2000 mW for 38.2 ms = 76.4 mJ.
  EXPECT_NEAR(eval::detection_energy_mj(phone, t), 76.4, 1e-9);
  EXPECT_NEAR(eval::detection_net_energy_mj(phone, t), 57.3, 1e-9);
}

TEST(EnergyTest, DetectionsPerCharge) {
  eval::PhonePowerProfile phone{"Test", 2000.0, 0.0};
  core::StageTimings t;
  t[pipeline::StageId::kFeatures] = 50.0;  // 100 mJ per detection
  // 1000 mWh battery = 3.6e6 mJ -> 36000 detections.
  EXPECT_NEAR(eval::detections_per_charge(phone, t, 1000.0), 36000.0, 1.0);
}

TEST(EnergyTest, IdleAboveActiveRejected) {
  eval::PhonePowerProfile phone{"Bad", 1000.0, 2000.0};
  core::StageTimings t;
  t[pipeline::StageId::kFeatures] = 1.0;
  EXPECT_THROW(eval::detection_net_energy_mj(phone, t), std::invalid_argument);
}

}  // namespace
}  // namespace earsonar
