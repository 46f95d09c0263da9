// The EarSonar facade: raw microphone capture in, MEE diagnosis out.
//
// Wires the full paper pipeline — band-pass preprocessing, adaptive-energy
// event detection, parity-decomposition echo segmentation, echo-PSD
// absorption analysis, 105-dim feature extraction, and the k-means detection
// head — behind one class, with per-stage wall-clock instrumentation
// (Table II reports per-stage latency).
#pragma once

#include <array>
#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "audio/waveform.hpp"
#include "common/cancel.hpp"
#include "core/absorption.hpp"
#include "core/detector.hpp"
#include "core/event_detect.hpp"
#include "core/features.hpp"
#include "core/preprocess.hpp"
#include "core/segment.hpp"
#include "obs/trace.hpp"
#include "pipeline/stage_graph.hpp"

namespace earsonar::core {

struct PipelineConfig {
  /// The probe design, stated once: its sample rate is the analysis rate,
  /// its timing the segmenter's emission grid, its band the absorption
  /// analysis band, and its clean chirp the transmit reference.
  audio::FmcwConfig chirp;
  PreprocessConfig preprocess;
  EventDetectorConfig events;
  SegmenterConfig segmenter;
  FeatureConfig features;  ///< carries SpectrumConfig inside
  DetectorConfig detector;
  /// Worker threads for batch stages (fit's per-recording analyses).
  /// 0 = auto: EARSONAR_THREADS env var, else hardware concurrency. Results
  /// are bit-identical at every thread count.
  std::size_t threads = 0;
  /// Degradation floor: when per-chirp errors occur during analyze(), the
  /// recording still produces a result as long as at least this many chirps
  /// survive; below it analyze() throws (std::runtime_error, message prefix
  /// "EarSonar::analyze: degraded"). Only *error* drops count against the
  /// floor — chirps that are merely unsegmentable (no echo found) keep the
  /// pre-existing empty-result behavior.
  std::size_t min_usable_chirps = 1;
};

/// Wall-clock milliseconds one request spent in each stage of the pipeline,
/// one slot per pipeline::StageId. Each slot is written by the StageClock
/// that timed the stage (its span carries the stage's name, see
/// docs/observability.md), measured whether or not a trace is being
/// captured. `filter` stays zero for a pre-fed streaming session and
/// `inference` for an analysis no model scored.
struct StageTimings {
  std::array<double, pipeline::kStageCount> ms{};

  [[nodiscard]] double& operator[](pipeline::StageId id) {
    return ms[static_cast<std::size_t>(id)];
  }
  [[nodiscard]] double operator[](pipeline::StageId id) const {
    return ms[static_cast<std::size_t>(id)];
  }
  [[nodiscard]] double total_ms() const {
    double total = 0.0;
    for (const double stage_ms : ms) total += stage_ms;
    return total;
  }
};

/// Times one execution of stage `id` for one request: the one point its
/// span, its StageTimings slot and (given a graph) its occupancy and latency
/// histogram are fed from. Opens `obs::Span(stage_name(id), category)`;
/// end() — or the destructor, so a stage that throws is still counted —
/// writes the elapsed time into `timings[id]` and records one pass into
/// `graph`.
class StageClock {
 public:
  StageClock(pipeline::StageId id, StageTimings& timings,
             pipeline::StageGraph* graph = nullptr,
             std::string_view category = "pipeline");
  ~StageClock() { end(); }

  StageClock(const StageClock&) = delete;
  StageClock& operator=(const StageClock&) = delete;

  void end();

 private:
  obs::Span span_;
  pipeline::StageId id_;
  StageTimings& timings_;
  pipeline::StageGraph* graph_;
  bool open_ = true;
};

/// One chirp lost to an error (not to a mere no-echo miss) during analyze().
struct ChirpDrop {
  /// Event index within the recording; kWholeStage for a failure that took
  /// out an entire stage rather than one chirp.
  static constexpr std::size_t kWholeStage = static_cast<std::size_t>(-1);
  std::size_t chirp = kWholeStage;
  std::string stage;   ///< "event_detect" | "segment" | "features"
  std::string reason;  ///< the exception message
};

/// Per-recording degradation report: how many chirps went in, how many
/// survived each stage, and why the casualties fell. `degraded` is the bit a
/// serving layer surfaces — the result is still valid, but it was computed
/// from a subset of the capture and a clinician may want a re-take.
struct AnalysisQuality {
  std::size_t chirps_total = 0;    ///< chirp events detected
  std::size_t chirps_used = 0;     ///< chirps contributing to the features
  std::size_t chirps_dropped = 0;  ///< chirps lost to *errors* (== drops.size())
  std::size_t min_usable = 1;      ///< the floor analyze() enforced
  std::vector<ChirpDrop> drops;
  bool degraded = false;  ///< any error drop occurred
};

/// Everything analyze() learns about one recording.
struct EchoAnalysis {
  std::vector<Event> events;
  std::vector<EchoSegment> echoes;
  dsp::Spectrum mean_spectrum;        ///< averaged eardrum-echo PSD
  std::vector<double> features;       ///< 105-dim vector
  StageTimings timings;
  AnalysisQuality quality;            ///< per-chirp degradation report

  [[nodiscard]] bool usable() const { return !features.empty(); }
};

class EarSonar {
 public:
  explicit EarSonar(PipelineConfig config = {});

  /// Signal-processing front half: resample to the probe rate, band-pass,
  /// then analyze_filtered(). `features` is empty when no echo could be
  /// segmented (caller decides how to handle the dropout).
  ///
  /// Error isolation: a chirp whose segmentation or PSD extraction throws is
  /// dropped and recorded in `quality` instead of aborting the recording;
  /// the result is computed from the surviving chirps exactly as if only
  /// they had been detected. Throws only when fewer than
  /// `config.min_usable_chirps` chirps survive an error, or when `cancel`
  /// expires between stages (CancelledError).
  [[nodiscard]] EchoAnalysis analyze(const audio::Waveform& recording,
                                     const CancelToken& cancel = {}) const;

  /// The post-filter analysis of one recording, already preprocessed at the
  /// probe sample rate — the one way every caller (analyze(), fit(), the
  /// streaming sessions of the serving engine) analyzes a recording.
  /// event_detect, segment, echo_psd (the recording's chirp windows four at
  /// a time through the pruned band transform, dsp::BandPsdPlan, into one
  /// flat buffer of PSD rows) and features run in turn, each timed by a
  /// StageClock into `graph` when one is given. A failed echo_psd pass makes
  /// the features stage recompute the PSDs echo by echo. The `filter` and
  /// `inference` timings stay zero. `envelope`, when given, is the power
  /// envelope folded while `filtered` was filtered (every sample, the event
  /// detector's `smooth`; see AdaptiveEventDetector::detect), so
  /// event_detect only closes and scans it. Throws what analyze() throws.
  [[nodiscard]] EchoAnalysis analyze_filtered(const audio::Waveform& filtered,
                                              const CancelToken& cancel = {},
                                              pipeline::StageGraph* graph = nullptr,
                                              dsp::EnvelopeFold* envelope = nullptr) const;

  /// Trains the detection head on labeled recordings (label indices follow
  /// kMeeStateNames). Recordings whose analysis yields no features, or a
  /// non-finite one, are skipped; at least four usable recordings are
  /// required.
  void fit(const std::vector<audio::Waveform>& recordings,
           const std::vector<std::size_t>& labels);

  /// Trains the detection head directly on precomputed feature vectors.
  void fit_features(const ml::Matrix& features, const std::vector<std::size_t>& labels);

  /// Full diagnosis of one recording; nullopt when no echo was found.
  [[nodiscard]] std::optional<Diagnosis> diagnose(const audio::Waveform& recording) const;

  /// Diagnosis from a precomputed feature vector.
  [[nodiscard]] Diagnosis diagnose_features(const std::vector<double>& features) const;

  [[nodiscard]] bool fitted() const { return detector_.fitted(); }
  [[nodiscard]] const PipelineConfig& config() const { return config_; }
  [[nodiscard]] const MeeDetector& detector() const { return detector_; }
  [[nodiscard]] std::size_t feature_dimension() const { return extractor_.dimension(); }

 private:
  // The stage bodies analyze_filtered() runs in turn; each times itself
  // with a StageClock into `analysis.timings` and `graph`.
  void stage_event_detect(const audio::Waveform& filtered, dsp::EnvelopeFold* envelope,
                          EchoAnalysis& analysis, pipeline::StageGraph* graph) const;
  /// Includes the min_usable_chirps floor check (may throw "degraded").
  void stage_segment(const audio::Waveform& filtered, EchoAnalysis& analysis,
                     const CancelToken& cancel, pipeline::StageGraph* graph) const;
  /// `rows` non-null supplies the echo_psd pass's PSD rows for the happy
  /// path; null computes them here. The error-recovery path always
  /// re-extracts echo by echo.
  void stage_features(const audio::Waveform& filtered, EchoAnalysis& analysis,
                      const std::vector<double>* rows,
                      pipeline::StageGraph* graph) const;

  PipelineConfig config_;
  Preprocessor preprocessor_;
  AdaptiveEventDetector event_detector_;
  ParityEchoSegmenter segmenter_;
  FeatureExtractor extractor_;
  MeeDetector detector_;
};

}  // namespace earsonar::core
