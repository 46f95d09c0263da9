// Core pipeline tests: preprocessing, event detection, parity segmentation,
// absorption analysis, feature extraction, detection head, and the EarSonar
// facade.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <numbers>
#include <sstream>
#include <string>

#include "audio/chirp.hpp"
#include "audio/noise.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "core/absorption.hpp"
#include "core/detector.hpp"
#include "core/event_detect.hpp"
#include "core/features.hpp"
#include "core/model_io.hpp"
#include "core/pipeline.hpp"
#include "core/preprocess.hpp"
#include "core/segment.hpp"
#include "sim/dataset.hpp"

namespace earsonar::core {
namespace {

// A synthetic "ear" recording: chirp train + delayed scaled echo + noise.
audio::Waveform synthetic_recording(std::size_t chirps, double echo_delay_samples,
                                    double echo_gain, std::uint64_t seed,
                                    double noise_rms = 1e-4) {
  const audio::FmcwConfig cfg;
  const audio::Waveform pulse = audio::make_chirp(cfg);
  audio::Waveform out =
      audio::Waveform::silence(chirps * cfg.interval_samples() + 512, cfg.sample_rate);
  Rng rng(seed);
  for (std::size_t k = 0; k < chirps; ++k) {
    const std::size_t base = audio::chirp_start_sample(cfg, k);
    out.add_at(pulse, base);
    // Integer-delayed echo keeps the test transparent.
    audio::Waveform echo = pulse;
    echo.scale(echo_gain);
    out.add_at(echo, base + static_cast<std::size_t>(echo_delay_samples));
  }
  if (noise_rms > 0.0) {
    audio::Waveform noise = audio::make_noise(audio::NoiseColor::kWhite, out.size(),
                                              cfg.sample_rate, rng);
    noise.scale(noise_rms);
    out.mix(noise);
  }
  return out;
}

// -------------------------------------------------------------- preprocess

TEST(PreprocessTest, PassesChirpBandBlocksSpeech) {
  Preprocessor pre;
  EXPECT_GT(pre.magnitude_at(18000.0, 48000.0), 0.9);
  EXPECT_LT(pre.magnitude_at(3000.0, 48000.0), 0.01);
  EXPECT_LT(pre.magnitude_at(23500.0, 48000.0), 0.1);
}

TEST(PreprocessTest, RemovesLowFrequencyHum) {
  const std::size_t n = 4800;
  std::vector<double> samples(n);
  for (std::size_t i = 0; i < n; ++i) {
    samples[i] = std::sin(2 * std::numbers::pi * 100.0 * i / 48000.0) +
                 0.1 * std::sin(2 * std::numbers::pi * 18000.0 * i / 48000.0);
  }
  Preprocessor pre;
  const audio::Waveform out = pre.process(audio::Waveform(samples, 48000.0));
  EXPECT_LT(out.rms(), 0.15);  // 100 Hz hum (rms .71) gone, 18k (rms .07) kept
  EXPECT_GT(out.rms(), 0.02);
}

TEST(PreprocessTest, OutputLengthMatchesInput) {
  Preprocessor pre;
  const audio::Waveform in = audio::Waveform::silence(1000, 48000.0);
  EXPECT_EQ(pre.process(in).size(), 1000u);
}

TEST(PreprocessTest, BadBandRejected) {
  PreprocessConfig cfg;
  cfg.band_low_hz = 30000.0;
  Preprocessor pre(cfg);
  const audio::Waveform in = audio::Waveform::silence(100, 48000.0);
  EXPECT_THROW(pre.process(in), std::invalid_argument);
}

// ------------------------------------------------------------ event detect

TEST(EventDetectTest, FindsOneEventPerChirp) {
  const audio::Waveform rec = synthetic_recording(10, 8, 0.3, 1);
  AdaptiveEventDetector detector;
  const auto events = detector.detect(rec);
  EXPECT_EQ(events.size(), 10u);
}

TEST(EventDetectTest, EventsAlignWithChirpStarts) {
  const audio::Waveform rec = synthetic_recording(5, 8, 0.3, 2);
  const auto events = AdaptiveEventDetector{}.detect(rec);
  ASSERT_EQ(events.size(), 5u);
  for (std::size_t k = 0; k < 5; ++k) {
    const std::size_t expected = k * 240;
    EXPECT_NEAR(static_cast<double>(events[k].start), static_cast<double>(expected), 12.0);
  }
}

TEST(EventDetectTest, EventsCoverChirpAndEcho) {
  const audio::Waveform rec = synthetic_recording(3, 8, 0.3, 3);
  for (const Event& e : AdaptiveEventDetector{}.detect(rec))
    EXPECT_GE(e.length(), 30u);  // 24-sample chirp + echo tail
}

TEST(EventDetectTest, SilenceHasNoEvents) {
  Rng rng(4);
  audio::Waveform noise =
      audio::make_noise(audio::NoiseColor::kWhite, 48000, 48000.0, rng);
  noise.scale(1e-4);
  EXPECT_TRUE(AdaptiveEventDetector{}.detect(noise).empty());
}

TEST(EventDetectTest, RespectsMinLength) {
  EventDetectorConfig cfg;
  cfg.min_length = 1000;  // nothing is that long
  cfg.max_length = 2000;
  const audio::Waveform rec = synthetic_recording(3, 8, 0.3, 5);
  EXPECT_TRUE(AdaptiveEventDetector(cfg).detect(rec).empty());
}

TEST(EventDetectTest, ConfigValidation) {
  EventDetectorConfig cfg;
  cfg.window = 2;
  EXPECT_THROW(AdaptiveEventDetector{cfg}, std::invalid_argument);
  cfg = EventDetectorConfig{};
  cfg.max_length = cfg.min_length;
  EXPECT_THROW(AdaptiveEventDetector{cfg}, std::invalid_argument);
}

// ----------------------------------------------------------- segmentation

TEST(ParityTest, EvenSequenceHasFullEvenEnergy) {
  const std::vector<double> x{1, 2, 3, 2, 1};
  const ParityEnergies pe = parity_energies(x, 2.0);
  EXPECT_GT(pe.even, 0.0);
  EXPECT_NEAR(pe.odd, 0.0, 1e-12);
}

TEST(ParityTest, OddSequenceHasFullOddEnergy) {
  const std::vector<double> x{-2, -1, 0, 1, 2};
  const ParityEnergies pe = parity_energies(x, 2.0);
  EXPECT_NEAR(pe.even, 0.0, 1e-12);
  EXPECT_GT(pe.odd, 0.0);
}

TEST(ParityTest, EnergyConservation) {
  const std::vector<double> x{3, 1, 4, 1, 5, 9, 2};
  const ParityEnergies pe = parity_energies(x, 3.0);
  double total = 0;
  for (double v : x) total += v * v;
  EXPECT_NEAR(pe.even + pe.odd, total, 1e-9);
}

TEST(SegmenterTest, CandidatesFoundOnSymmetricPulse) {
  ParityEchoSegmenter segmenter;
  std::vector<double> x(64, 0.0);
  for (int k = -6; k <= 6; ++k) x[32 + k] = std::exp(-0.2 * k * k);
  const auto candidates = segmenter.candidates(x);
  ASSERT_FALSE(candidates.empty());
  bool found_center = false;
  for (const auto& c : candidates)
    if (std::abs(c.center - 32.0) < 1.5 && c.parity_ratio > 0.9) found_center = true;
  EXPECT_TRUE(found_center);
}

TEST(SegmenterTest, FindsEchoAtPlausibleDistance) {
  const audio::Waveform raw = synthetic_recording(4, 8, 0.35, 6);
  Preprocessor pre;
  const audio::Waveform rec = pre.process(raw);
  const auto events = AdaptiveEventDetector{}.detect(rec);
  ASSERT_FALSE(events.empty());
  ParityEchoSegmenter segmenter;
  const auto echo = segmenter.segment(rec, events[0]);
  ASSERT_TRUE(echo.has_value());
  EXPECT_GE(echo->distance_m, segmenter.config().min_distance_m);
  EXPECT_LE(echo->distance_m, segmenter.config().max_distance_m);
  EXPECT_GT(echo->peak_index, echo->direct_peak_index);
}

TEST(SegmenterTest, TooShortEventReturnsNullopt) {
  ParityEchoSegmenter segmenter;
  const audio::Waveform rec = synthetic_recording(1, 8, 0.3, 7);
  Event tiny{0, 4};
  EXPECT_FALSE(segmenter.segment(rec, tiny).has_value());
}

TEST(SegmenterTest, EventOutsideSignalThrows) {
  ParityEchoSegmenter segmenter;
  const audio::Waveform rec = audio::Waveform::silence(100, 48000.0);
  Event bad{50, 200};
  EXPECT_THROW((void)segmenter.segment(rec, bad), std::invalid_argument);
}

TEST(SegmenterTest, ConfigValidation) {
  SegmenterConfig cfg;
  cfg.parity_threshold = 0.4;  // must be > 0.5
  EXPECT_THROW(ParityEchoSegmenter{cfg}, std::invalid_argument);
  cfg = SegmenterConfig{};
  cfg.min_distance_m = 0.05;
  cfg.max_distance_m = 0.01;
  EXPECT_THROW(ParityEchoSegmenter{cfg}, std::invalid_argument);
}

// ------------------------------------------------------------- absorption

TEST(AbsorptionTest, SpectrumOnUniformBandGrid) {
  EchoSpectrumExtractor extractor;
  const audio::Waveform rec = synthetic_recording(2, 8, 0.4, 8);
  EchoSegment echo;
  echo.event_start = 0;
  echo.peak_index = 20;
  echo.direct_peak_index = 12;
  const dsp::Spectrum s = extractor.extract(rec, echo);
  EXPECT_EQ(s.size(), extractor.config().band_bins);
  EXPECT_DOUBLE_EQ(s.frequency_hz.front(), extractor.probe().start_hz);
  EXPECT_DOUBLE_EQ(s.frequency_hz.back(), extractor.probe().end_hz());
}

TEST(AbsorptionTest, ReferenceNormalizationFlattensCleanChirp) {
  // A recording that is exactly the clean chirp train (no ear) must produce a
  // near-flat normalized spectrum: the reference divides the chirp away.
  audio::FmcwConfig chirp;
  const EchoSpectrumExtractor extractor(SpectrumConfig{}, chirp);
  const audio::Waveform train = audio::make_chirp_train(chirp, 2);
  EchoSegment echo;
  echo.event_start = 0;
  echo.peak_index = 12;
  echo.direct_peak_index = 12;
  const dsp::Spectrum s = extractor.extract(train, echo);
  // Interior of the band: ratio should be close to constant.
  std::vector<double> interior(s.psd.begin() + 16, s.psd.end() - 16);
  const double cv = stddev(interior) / mean(interior);
  EXPECT_LT(cv, 0.25);
}

TEST(AbsorptionTest, StrongerEchoRaisesLevel) {
  const EchoSpectrumExtractor extractor;
  const audio::Waveform weak = synthetic_recording(1, 8, 0.1, 9, 0.0);
  const audio::Waveform strong = synthetic_recording(1, 8, 0.5, 9, 0.0);
  EchoSegment echo;
  echo.event_start = 0;
  echo.peak_index = 20;
  echo.direct_peak_index = 12;
  const double weak_level = mean(extractor.extract(weak, echo).psd);
  const double strong_level = mean(extractor.extract(strong, echo).psd);
  EXPECT_GT(strong_level, weak_level);
}

TEST(AbsorptionTest, AverageOfIdenticalEchoesIsStable) {
  EchoSpectrumExtractor extractor;
  const audio::Waveform rec = synthetic_recording(4, 8, 0.4, 10, 0.0);
  std::vector<EchoSegment> echoes;
  for (std::size_t k = 0; k < 4; ++k) {
    EchoSegment e;
    e.event_start = k * 240;
    e.peak_index = k * 240 + 20;
    e.direct_peak_index = k * 240 + 12;
    echoes.push_back(e);
  }
  const dsp::Spectrum avg = extractor.average(rec, echoes);
  const dsp::Spectrum one = extractor.extract(rec, echoes[0]);
  for (std::size_t i = 0; i < avg.size(); ++i)
    EXPECT_NEAR(avg.psd[i], one.psd[i], 0.05 * (one.psd[i] + 1e-12));
}

TEST(AbsorptionTest, ExtractAllMatchesPerEchoExtractBitwise) {
  // extract_all packs echoes four to a group of the pruned band transform,
  // the last group padded with zero lanes; every row must equal the per-echo
  // extract() bit for bit (the feature vector depends on exact values).
  // Counts 1, 4 and 7 cover a padded group alone, full groups only, and
  // both; every anchor places its window differently, each with the
  // transmit reference on.
  audio::FmcwConfig chirp;
  const audio::Waveform rec = synthetic_recording(7, 8, 0.4, 10, 0.02);
  for (WindowAnchor anchor : {WindowAnchor::kEventStart, WindowAnchor::kEchoPeak,
                              WindowAnchor::kDirectGate}) {
    SpectrumConfig cfg;
    cfg.anchor = anchor;
    const EchoSpectrumExtractor extractor(cfg, chirp);
    for (std::size_t count : {1UL, 4UL, 7UL}) {
      SCOPED_TRACE("anchor=" + std::to_string(static_cast<int>(anchor)) +
                   " echoes=" + std::to_string(count));
      std::vector<EchoSegment> echoes;
      for (std::size_t k = 0; k < count; ++k) {
        EchoSegment e;
        e.event_start = k * 240;
        e.peak_index = k * 240 + 20;
        e.direct_peak_index = k * 240 + 12;
        echoes.push_back(e);
      }
      const std::vector<double> batched = extractor.extract_all(rec, echoes);
      const std::size_t bins = cfg.band_bins;
      ASSERT_EQ(batched.size(), echoes.size() * bins);
      for (std::size_t k = 0; k < echoes.size(); ++k) {
        const dsp::Spectrum single = extractor.extract(rec, echoes[k]);
        ASSERT_EQ(single.size(), bins);
        for (std::size_t i = 0; i < single.size(); ++i) {
          ASSERT_EQ(batched[k * bins + i], single.psd[i]) << "echo=" << k << " bin=" << i;
          ASSERT_EQ(extractor.band_frequencies()[i], single.frequency_hz[i]);
        }
      }
    }
  }
}

TEST(AbsorptionTest, ConfigValidation) {
  SpectrumConfig cfg;
  cfg.fft_size = 100;  // not a power of two
  EXPECT_THROW(EchoSpectrumExtractor{cfg}, std::invalid_argument);
  // The band is the probe's: a chirp past Nyquist is refused.
  audio::FmcwConfig past_nyquist;
  past_nyquist.start_hz = 21000.0;
  EXPECT_THROW((EchoSpectrumExtractor{SpectrumConfig{}, past_nyquist}), std::invalid_argument);
  // fft_size must hold every anchor's window: event_window_length + 1,
  // pre_peak + post_peak + 1 and gate_length + 1 samples. 128 holds the
  // defaults.
  cfg = SpectrumConfig{};
  cfg.fft_size = 128;
  EXPECT_NO_THROW(EchoSpectrumExtractor{cfg});
  cfg.event_window_length = 127;
  EXPECT_NO_THROW(EchoSpectrumExtractor{cfg});
  cfg.event_window_length = 128;
  EXPECT_THROW(EchoSpectrumExtractor{cfg}, std::invalid_argument);
  cfg = SpectrumConfig{};
  cfg.fft_size = 128;
  cfg.post_peak = 128 - cfg.pre_peak;
  EXPECT_THROW(EchoSpectrumExtractor{cfg}, std::invalid_argument);
  cfg = SpectrumConfig{};
  cfg.fft_size = 128;
  cfg.gate_length = 128;
  EXPECT_THROW(EchoSpectrumExtractor{cfg}, std::invalid_argument);
}

// ---------------------------------------------------------------- features

TEST(FeatureTest, DimensionIs105ByDefault) {
  const FeatureConfig cfg;
  EXPECT_EQ(cfg.dimension(), 105u);
}

TEST(FeatureTest, ExtractProducesConfiguredDimension) {
  FeatureExtractor extractor;
  const audio::Waveform rec = synthetic_recording(6, 8, 0.4, 11);
  std::vector<EchoSegment> echoes;
  for (std::size_t k = 0; k < 6; ++k) {
    EchoSegment e;
    e.event_start = k * 240;
    e.peak_index = k * 240 + 20;
    e.direct_peak_index = k * 240 + 12;
    echoes.push_back(e);
  }
  const auto features = extractor.extract(rec, echoes);
  EXPECT_EQ(features.size(), 105u);
  for (double f : features) EXPECT_TRUE(std::isfinite(f));
}

TEST(FeatureTest, FeatureNamesCoverEverySlot) {
  const FeatureConfig cfg;
  std::set<std::string> names;
  for (std::size_t i = 0; i < cfg.dimension(); ++i)
    names.insert(feature_name(cfg, i));
  EXPECT_EQ(names.size(), cfg.dimension());
  EXPECT_THROW(feature_name(cfg, cfg.dimension()), std::invalid_argument);
}

TEST(FeatureTest, NamedRegionsAreWhereExpected) {
  const FeatureConfig cfg;
  EXPECT_EQ(feature_name(cfg, 0), "mfcc[g0][0]");
  EXPECT_EQ(feature_name(cfg, 39), "subband_log_power[0]");
  EXPECT_EQ(feature_name(cfg, 69), "psd_sample[0]");
  EXPECT_EQ(feature_name(cfg, 93), "dip_frequency");
  EXPECT_EQ(feature_name(cfg, 99), "mean");
  EXPECT_EQ(feature_name(cfg, 104), "kurtosis");
}

TEST(FeatureTest, EchoGainChangesLevelFeatures) {
  FeatureExtractor extractor;
  const audio::Waveform weak = synthetic_recording(3, 8, 0.1, 12, 0.0);
  const audio::Waveform strong = synthetic_recording(3, 8, 0.5, 12, 0.0);
  std::vector<EchoSegment> echoes;
  for (std::size_t k = 0; k < 3; ++k) {
    EchoSegment e;
    e.event_start = k * 240;
    e.peak_index = k * 240 + 20;
    e.direct_peak_index = k * 240 + 12;
    echoes.push_back(e);
  }
  const auto fw = extractor.extract(weak, echoes);
  const auto fs = extractor.extract(strong, echoes);
  // "mean" statistic (slot 99) must reflect the level difference.
  EXPECT_GT(fs[99], fw[99]);
}

TEST(FeatureTest, EmptyEchoListThrows) {
  FeatureExtractor extractor;
  const audio::Waveform rec = synthetic_recording(1, 8, 0.3, 13);
  EXPECT_THROW(extractor.extract(rec, {}), std::invalid_argument);
}

TEST(FeatureTest, ConfigDimensionArithmetic) {
  FeatureConfig cfg;
  cfg.time_groups = 2;
  cfg.mfcc_coefficients = 10;
  cfg.subband_powers = 8;
  cfg.psd_samples = 12;
  EXPECT_EQ(cfg.dimension(), 2u * 10u + 8u + 12u + 6u + 6u);
}

// ---------------------------------------------------------------- detector

TEST(DetectorTest, LearnsSeparableFeatureClasses) {
  Rng rng(14);
  ml::Matrix features;
  std::vector<std::size_t> labels;
  for (std::size_t c = 0; c < kMeeStateCount; ++c)
    for (int i = 0; i < 30; ++i) {
      std::vector<double> row(10);
      for (std::size_t j = 0; j < row.size(); ++j)
        row[j] = static_cast<double>(c) * 3.0 + rng.normal(0.0, 0.3);
      features.push_back(row);
      labels.push_back(c);
    }
  DetectorConfig cfg;
  cfg.selected_features = 5;
  MeeDetector detector(cfg);
  detector.fit(features, labels);
  std::size_t correct = 0;
  for (std::size_t i = 0; i < features.size(); ++i)
    if (detector.predict(features[i]).state == labels[i]) ++correct;
  EXPECT_GT(static_cast<double>(correct) / features.size(), 0.95);
  EXPECT_EQ(detector.selected_features().size(), 5u);
}

TEST(DetectorTest, ConfidenceHigherNearCentroid) {
  Rng rng(15);
  ml::Matrix features;
  std::vector<std::size_t> labels;
  for (std::size_t c = 0; c < kMeeStateCount; ++c)
    for (int i = 0; i < 20; ++i) {
      features.push_back({c * 5.0 + rng.normal(0, 0.1), c * 5.0 + rng.normal(0, 0.1)});
      labels.push_back(c);
    }
  DetectorConfig cfg;
  cfg.selected_features = 2;
  MeeDetector detector(cfg);
  detector.fit(features, labels);
  const Diagnosis central = detector.predict({0.0, 0.0});
  const Diagnosis boundary = detector.predict({2.5, 2.5});
  EXPECT_GT(central.confidence, boundary.confidence);
}

TEST(DetectorTest, PredictBeforeFitThrows) {
  MeeDetector detector;
  EXPECT_THROW((void)detector.predict({1.0}), std::invalid_argument);
}

TEST(DetectorTest, MissingClassInTrainingThrows) {
  ml::Matrix features{{0, 0}, {1, 1}, {2, 2}, {3, 3}};
  std::vector<std::size_t> labels{0, 0, 1, 1};  // classes 2, 3 absent
  DetectorConfig cfg;
  cfg.selected_features = 2;
  MeeDetector detector(cfg);
  EXPECT_THROW(detector.fit(features, labels), std::invalid_argument);
}

TEST(DetectorTest, NonFiniteFeatureThrows) {
  Rng rng(17);
  ml::Matrix features;
  std::vector<std::size_t> labels;
  for (std::size_t c = 0; c < kMeeStateCount; ++c)
    for (int i = 0; i < 5; ++i) {
      features.push_back({c + rng.normal(0, 0.1), c + rng.normal(0, 0.1)});
      labels.push_back(c);
    }
  DetectorConfig cfg;
  cfg.selected_features = 2;
  for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity()}) {
    ml::Matrix poisoned = features;
    poisoned[7][1] = bad;
    MeeDetector detector(cfg);
    EXPECT_THROW(detector.fit(poisoned, labels), std::invalid_argument);
    EXPECT_FALSE(detector.fitted());
  }
}

TEST(DetectorTest, KMustBeFour) {
  DetectorConfig cfg;
  cfg.kmeans.k = 3;
  EXPECT_THROW(MeeDetector{cfg}, std::invalid_argument);
}

TEST(DetectorTest, StateNamesMatchSimulatorOrder) {
  EXPECT_STREQ(kMeeStateNames[0], "Clear");
  EXPECT_STREQ(kMeeStateNames[1], "Serous");
  EXPECT_STREQ(kMeeStateNames[2], "Mucoid");
  EXPECT_STREQ(kMeeStateNames[3], "Purulent");
}

// ---------------------------------------------------------------- pipeline

TEST(PipelineTest, AnalyzeSimulatedRecording) {
  sim::SubjectFactory factory(42);
  const sim::Subject subject = factory.make(0);
  sim::ProbeConfig probe_cfg;
  probe_cfg.chirp_count = 10;
  sim::EarProbe probe(probe_cfg);
  Rng rng(1);
  const audio::Waveform rec = probe.record_state(
      subject, sim::EffusionState::kClear, sim::reference_earphone(), {}, rng);

  EarSonar pipeline;
  const EchoAnalysis analysis = pipeline.analyze(rec);
  EXPECT_TRUE(analysis.usable());
  EXPECT_EQ(analysis.events.size(), 10u);
  EXPECT_EQ(analysis.echoes.size(), 10u);
  EXPECT_EQ(analysis.features.size(), pipeline.feature_dimension());
  EXPECT_EQ(analysis.mean_spectrum.size(),
            pipeline.config().features.spectrum.band_bins);
  EXPECT_GT(analysis.timings[pipeline::StageId::kFilter], 0.0);
  EXPECT_GT(analysis.timings[pipeline::StageId::kFeatures], 0.0);
}

// The probe is stated once, in PipelineConfig::chirp: a pipeline built for a
// 17-20 kHz chirp every 6 ms analyzes on that band and anchors every echo's
// direct pulse on that emission grid.
TEST(PipelineTest, NonDefaultProbeReachesEveryStage) {
  audio::FmcwConfig chirp;
  chirp.start_hz = 17000.0;
  chirp.bandwidth_hz = 3000.0;
  chirp.interval_s = 0.006;
  sim::SubjectFactory factory(42);
  sim::ProbeConfig probe_cfg;
  probe_cfg.chirp = chirp;
  probe_cfg.chirp_count = 10;
  sim::EarProbe probe(probe_cfg);
  Rng rng(1);
  const audio::Waveform rec = probe.record_state(
      factory.make(0), sim::EffusionState::kClear, sim::reference_earphone(), {}, rng);

  PipelineConfig config;
  config.chirp = chirp;
  const EchoAnalysis analysis = EarSonar(config).analyze(rec);
  ASSERT_TRUE(analysis.usable());
  EXPECT_DOUBLE_EQ(analysis.mean_spectrum.frequency_hz.front(), 17000.0);
  EXPECT_DOUBLE_EQ(analysis.mean_spectrum.frequency_hz.back(), 20000.0);
  ASSERT_FALSE(analysis.echoes.empty());
  const std::size_t interval = chirp.interval_samples();  // 288
  const std::size_t half_chirp = chirp.chirp_samples() / 2;  // T/2 = 12
  for (const EchoSegment& e : analysis.echoes) {
    ASSERT_GE(e.direct_peak_index, half_chirp);
    EXPECT_EQ((e.direct_peak_index - half_chirp) % interval, 0u)
        << "direct pulse at " << e.direct_peak_index << " is off the 6 ms grid";
  }
}

TEST(PipelineTest, InvalidProbeRefusedAtConstruction) {
  PipelineConfig config;
  config.chirp.start_hz = 22000.0;  // 22-26 kHz: past Nyquist at 48 kHz
  EXPECT_THROW(EarSonar{config}, std::invalid_argument);
  config = PipelineConfig{};
  config.chirp.interval_s = 0.0004;  // shorter than the 0.5 ms chirp
  EXPECT_THROW(EarSonar{config}, std::invalid_argument);
}

TEST(PipelineTest, ConsensusReanchoringAlignsEchoes) {
  sim::SubjectFactory factory(42);
  const sim::Subject subject = factory.make(1);
  sim::ProbeConfig probe_cfg;
  probe_cfg.chirp_count = 12;
  sim::EarProbe probe(probe_cfg);
  Rng rng(2);
  const audio::Waveform rec = probe.record_state(
      subject, sim::EffusionState::kSerous, sim::reference_earphone(), {}, rng);
  EarSonar pipeline;
  const EchoAnalysis analysis = pipeline.analyze(rec);
  ASSERT_GE(analysis.echoes.size(), 3u);
  // After consensus re-anchoring all echoes share one offset.
  const auto offset = [&](const EchoSegment& e) {
    return static_cast<std::ptrdiff_t>(e.peak_index) -
           static_cast<std::ptrdiff_t>(e.direct_peak_index);
  };
  for (const EchoSegment& e : analysis.echoes)
    EXPECT_EQ(offset(e), offset(analysis.echoes[0]));
}

TEST(PipelineTest, AnalyzeIsDeterministic) {
  sim::SubjectFactory factory(42);
  const sim::Subject subject = factory.make(2);
  sim::ProbeConfig probe_cfg;
  probe_cfg.chirp_count = 6;
  sim::EarProbe probe(probe_cfg);
  Rng rng(3);
  const audio::Waveform rec = probe.record_state(
      subject, sim::EffusionState::kMucoid, sim::reference_earphone(), {}, rng);
  EarSonar pipeline;
  const auto a = pipeline.analyze(rec);
  const auto b = pipeline.analyze(rec);
  EXPECT_EQ(a.features, b.features);
}

TEST(PipelineTest, DiagnoseBeforeFitThrows) {
  EarSonar pipeline;
  const audio::Waveform rec = synthetic_recording(2, 8, 0.3, 16);
  EXPECT_THROW(pipeline.diagnose(rec), std::invalid_argument);
}

TEST(PipelineTest, FitAndDiagnoseEndToEnd) {
  sim::CohortConfig cc;
  cc.subject_count = 6;
  cc.sessions_per_state = 1;
  cc.probe.chirp_count = 10;
  cc.randomize_conditions = false;
  const auto recs = sim::CohortGenerator(cc).generate();

  std::vector<audio::Waveform> waves;
  std::vector<std::size_t> labels;
  for (const auto& r : recs) {
    waves.push_back(r.waveform);
    labels.push_back(sim::state_index(r.state));
  }
  EarSonar pipeline;
  pipeline.fit(waves, labels);
  EXPECT_TRUE(pipeline.fitted());

  // Training-set accuracy must be high on clean separable data.
  std::size_t correct = 0;
  for (std::size_t i = 0; i < waves.size(); ++i) {
    const auto d = pipeline.diagnose(waves[i]);
    ASSERT_TRUE(d.has_value());
    if (d->state == labels[i]) ++correct;
  }
  EXPECT_GT(static_cast<double>(correct) / waves.size(), 0.85);
}

TEST(PipelineTest, FitSkipsRecordingsWithNonFiniteFeatures) {
  sim::CohortConfig cc;
  cc.subject_count = 6;
  cc.sessions_per_state = 1;
  cc.probe.chirp_count = 10;
  cc.randomize_conditions = false;
  std::vector<audio::Waveform> waves;
  std::vector<std::size_t> labels;
  for (const auto& r : sim::CohortGenerator(cc).generate()) {
    waves.push_back(r.waveform);
    labels.push_back(sim::state_index(r.state));
  }
  EarSonar clean;
  clean.fit(waves, labels);

  // A recording 1e100 times too loud still analyzes, but its band powers
  // overflow to infinity; fit must leave it out rather than train on it.
  std::vector<double> loud(waves[3].samples().begin(), waves[3].samples().end());
  for (double& v : loud) v *= 1e100;
  const audio::Waveform overflowing(loud, waves[3].sample_rate());
  const EchoAnalysis analysis = clean.analyze(overflowing);
  ASSERT_TRUE(analysis.usable());
  ASSERT_FALSE(std::all_of(analysis.features.begin(), analysis.features.end(),
                           [](double v) { return std::isfinite(v); }));

  std::vector<audio::Waveform> with_loud = waves;
  std::vector<std::size_t> with_loud_labels = labels;
  with_loud.insert(with_loud.begin() + 5, overflowing);
  with_loud_labels.insert(with_loud_labels.begin() + 5, labels[3]);
  EarSonar skipped;
  skipped.fit(with_loud, with_loud_labels);
  std::ostringstream want, got;
  save_detector(clean.detector(), want);
  save_detector(skipped.detector(), got);
  EXPECT_EQ(got.str(), want.str());
}

TEST(PipelineTest, StageTimingsSumToTotal) {
  StageTimings t;
  t[pipeline::StageId::kFilter] = 1.0;
  t[pipeline::StageId::kEventDetect] = 2.0;
  t[pipeline::StageId::kSegment] = 3.0;
  t[pipeline::StageId::kFeatures] = 4.0;
  t[pipeline::StageId::kInference] = 5.0;
  EXPECT_DOUBLE_EQ(t.total_ms(), 15.0);
}

TEST(PipelineTest, EmptyRecordingThrows) {
  EarSonar pipeline;
  EXPECT_THROW(pipeline.analyze(audio::Waveform{}), std::invalid_argument);
}

}  // namespace
}  // namespace earsonar::core
