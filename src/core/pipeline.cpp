#include "core/pipeline.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <sstream>
#include <utility>

#include "common/error.hpp"
#include "common/fault.hpp"
#include "common/parallel.hpp"
#include "dsp/envelope.hpp"
#include "dsp/interpolate.hpp"
#include "obs/trace.hpp"

namespace earsonar::core {

namespace {

// The probe is the one statement of the chirp's rate, timing and band that
// every stage reads, so it is checked once, before any stage is built on it.
const PipelineConfig& with_valid_probe(const PipelineConfig& config) {
  config.chirp.validate();
  return config;
}

}  // namespace

EarSonar::EarSonar(PipelineConfig config)
    : config_(with_valid_probe(config)),
      preprocessor_(config.preprocess),
      event_detector_(config.events),
      segmenter_(config.segmenter, config.chirp),
      extractor_(config.features, config.chirp),
      detector_(config.detector) {}

StageClock::StageClock(pipeline::StageId id, StageTimings& timings,
                       pipeline::StageGraph* graph, std::string_view category)
    : span_(pipeline::stage_name(id), category),
      id_(id),
      timings_(timings),
      graph_(graph) {}

void StageClock::end() {
  if (!open_) return;
  open_ = false;
  span_.end();
  timings_[id_] = span_.elapsed_ms();
  if (graph_) graph_->record(id_, timings_[id_]);
}

EchoAnalysis EarSonar::analyze(const audio::Waveform& recording,
                               const CancelToken& cancel) const {
  require_nonempty("EarSonar::analyze recording", recording.size());
  cancel.check("analyze");

  obs::Span analyze_span("analyze", "pipeline");
  StageTimings filter_timing;
  StageClock filter_clock(pipeline::StageId::kFilter, filter_timing);
  // Every downstream constant (band edges, chirp grid, echo-distance math)
  // assumes the probe design's sample rate; transparently resample captures
  // that arrive at another rate (e.g., 44.1 kHz WAVs from a phone).
  const audio::Waveform* input = &recording;
  audio::Waveform resampled;
  if (recording.sample_rate() != config_.chirp.sample_rate) {
    obs::Span resample_span("resample", "pipeline");
    resampled = audio::Waveform(
        dsp::resample_to_rate(recording.view(), recording.sample_rate(),
                              config_.chirp.sample_rate),
        config_.chirp.sample_rate);
    input = &resampled;
  }
  const audio::Waveform filtered = preprocessor_.process(*input);
  filter_clock.end();

  EchoAnalysis analysis = analyze_filtered(filtered, cancel);
  analysis.timings[pipeline::StageId::kFilter] =
      filter_timing[pipeline::StageId::kFilter];
  return analysis;
}

namespace {

[[noreturn]] void throw_degraded(const AnalysisQuality& quality) {
  std::ostringstream os;
  os << "EarSonar::analyze: degraded below min_usable_chirps: " << quality.chirps_used
     << " of " << quality.chirps_total << " chirps usable (floor "
     << quality.min_usable << ")";
  if (!quality.drops.empty())
    os << "; first error [" << quality.drops.front().stage
       << "]: " << quality.drops.front().reason;
  throw std::runtime_error(os.str());
}

}  // namespace

EchoAnalysis EarSonar::analyze_filtered(const audio::Waveform& filtered,
                                        const CancelToken& cancel,
                                        pipeline::StageGraph* graph,
                                        dsp::EnvelopeFold* envelope) const {
  require_nonempty("EarSonar::analyze_filtered signal", filtered.size());
  require(envelope == nullptr || envelope->count == filtered.size(),
          "EarSonar::analyze_filtered: envelope does not cover the signal");
  EchoAnalysis analysis;
  analysis.quality.min_usable = config_.min_usable_chirps;
  stage_event_detect(filtered, envelope, analysis, graph);
  stage_segment(filtered, analysis, cancel, graph);
  if (analysis.echoes.empty()) return analysis;
  cancel.check("features");

  std::vector<double> rows;
  {
    StageClock clock(pipeline::StageId::kEchoPsd, analysis.timings, graph);
    try {
      rows = extractor_.spectrum_extractor().extract_all(filtered, analysis.echoes);
    } catch (...) {
      // The pass failed (e.g. an injected FFT fault) and left `rows` empty:
      // stage_features recomputes the PSDs echo by echo, where the recovery
      // machinery attributes the error to the chirp that owns it.
    }
  }
  stage_features(filtered, analysis, rows.empty() ? nullptr : &rows, graph);
  return analysis;
}

void EarSonar::stage_event_detect(const audio::Waveform& filtered,
                                  dsp::EnvelopeFold* envelope, EchoAnalysis& analysis,
                                  pipeline::StageGraph* graph) const {
  AnalysisQuality& quality = analysis.quality;
  StageClock clock(pipeline::StageId::kEventDetect, analysis.timings, graph);
  try {
    if (fault::point("pipeline.event_detect"))
      fail("injected fault: pipeline.event_detect");
    analysis.events = envelope != nullptr ? event_detector_.detect(*envelope)
                                          : event_detector_.detect(filtered);
    for (Event& event : analysis.events)
      event.start = aligned_event_start(filtered.view(), event);
  } catch (const std::exception& e) {
    // Event detection is a whole-recording stage: when it fails, no chirp is
    // recoverable. Record the casualty and fall through to the floor check
    // below, which throws with this reason attached.
    quality.drops.push_back({ChirpDrop::kWholeStage, "event_detect", e.what()});
    analysis.events.clear();
  }
  clock.end();
  quality.chirps_total = analysis.events.size();
}

void EarSonar::stage_segment(const audio::Waveform& filtered, EchoAnalysis& analysis,
                             const CancelToken& cancel, pipeline::StageGraph* graph) const {
  cancel.check("segment");
  AnalysisQuality& quality = analysis.quality;
  StageClock clock(pipeline::StageId::kSegment, analysis.timings, graph);
  for (std::size_t i = 0; i < analysis.events.size(); ++i) {
    cancel.check("segment_chirp");
    // Opened only while tracing: an unarmed span still reads the clock
    // twice, and a request segments ~30 chirps.
    std::optional<obs::Span> chirp_span;
    if (obs::TraceRecorder::instance().enabled()) {
      chirp_span.emplace("segment_chirp", "pipeline");
      chirp_span->set_arg("chirp", static_cast<std::int64_t>(i));
    }
    // Per-chirp isolation: one clipped or corrupted chirp out of 200 must
    // not discard the recording. An exception drops this chirp (recorded in
    // `quality`); a nullopt is the pre-existing benign no-echo miss.
    try {
      if (fault::point("pipeline.segment_chirp"))
        fail("injected fault: pipeline.segment_chirp");
      if (std::optional<EchoSegment> echo =
              segmenter_.segment(filtered, analysis.events[i]))
        analysis.echoes.push_back(*echo);
    } catch (const std::exception& e) {
      quality.drops.push_back({i, "segment", e.what()});
    }
  }
  reanchor_echoes(analysis.echoes, filtered.sample_rate());
  clock.end();
  quality.chirps_used = analysis.echoes.size();
  quality.chirps_dropped = quality.drops.size();
  quality.degraded = !quality.drops.empty();
  if (quality.degraded && quality.chirps_used < quality.min_usable)
    throw_degraded(quality);
}

void EarSonar::stage_features(const audio::Waveform& filtered, EchoAnalysis& analysis,
                              const std::vector<double>* rows,
                              pipeline::StageGraph* graph) const {
  AnalysisQuality& quality = analysis.quality;
  StageClock clock(pipeline::StageId::kFeatures, analysis.timings, graph);
  // One extraction pass yields both the feature vector and the mean echo
  // spectrum from the per-echo PSD rows of the echo_psd pass. The recovery path
  // below always re-extracts per request, probing each echo alone.
  try {
    if (fault::point("pipeline.features")) fail("injected fault: pipeline.features");
    FeatureExtractor::Result extracted =
        rows ? extractor_.extract_full_from_rows(analysis.echoes.size(), *rows)
             : extractor_.extract_full(filtered, analysis.echoes);
    analysis.mean_spectrum = std::move(extracted.mean_spectrum);
    analysis.features = std::move(extracted.features);
  } catch (const CancelledError&) {
    throw;
  } catch (const std::exception& e) {
    // An FFT/PSD failure usually poisons one echo, not the stage: probe each
    // echo alone to partition survivors from casualties, then re-extract over
    // the survivors — the same result as if only they had been segmented.
    std::vector<EchoSegment> survivors;
    survivors.reserve(analysis.echoes.size());
    for (std::size_t i = 0; i < analysis.echoes.size(); ++i) {
      try {
        (void)extractor_.extract_full(filtered, {analysis.echoes[i]});
        survivors.push_back(analysis.echoes[i]);
      } catch (const std::exception& probe_error) {
        quality.drops.push_back({i, "features", probe_error.what()});
      }
    }
    if (quality.drops.empty() || quality.drops.back().stage != "features")
      quality.drops.push_back({ChirpDrop::kWholeStage, "features", e.what()});
    try {
      if (!survivors.empty()) {
        FeatureExtractor::Result extracted = extractor_.extract_full(filtered, survivors);
        analysis.mean_spectrum = std::move(extracted.mean_spectrum);
        analysis.features = std::move(extracted.features);
        analysis.echoes = std::move(survivors);
      }
    } catch (const std::exception& retry_error) {
      // The retry failed too (e.g. an every-k fault still firing): give up on
      // the stage, keep the segmentation products, return an unusable result.
      quality.drops.push_back({ChirpDrop::kWholeStage, "features", retry_error.what()});
      analysis.features.clear();
    }
    quality.chirps_used = analysis.features.empty() ? 0 : analysis.echoes.size();
    quality.chirps_dropped = quality.drops.size();
    quality.degraded = true;
    if (quality.chirps_used < quality.min_usable) throw_degraded(quality);
  }
}

void EarSonar::fit(const std::vector<audio::Waveform>& recordings,
                   const std::vector<std::size_t>& labels) {
  require(recordings.size() == labels.size(), "EarSonar::fit: size mismatch");
  // The analyses are independent, so they fan out across the pool; each lands
  // in its own slot and the collection below runs serially in recording
  // order, making the fitted detector bit-identical at any thread count.
  std::vector<EchoAnalysis> analyses(recordings.size());
  parallel_for(
      recordings.size(),
      [&](std::size_t i) { analyses[i] = analyze(recordings[i]); },
      config_.threads);
  ml::Matrix features;
  std::vector<std::size_t> usable_labels;
  for (std::size_t i = 0; i < analyses.size(); ++i) {
    const std::vector<double>& row = analyses[i].features;
    if (!analyses[i].usable() ||
        !std::all_of(row.begin(), row.end(), [](double v) { return std::isfinite(v); }))
      continue;
    features.push_back(std::move(analyses[i].features));
    usable_labels.push_back(labels[i]);
  }
  require(features.size() >= kMeeStateCount,
          "EarSonar::fit: fewer than four usable recordings");
  detector_.fit(features, usable_labels);
}

void EarSonar::fit_features(const ml::Matrix& features,
                            const std::vector<std::size_t>& labels) {
  detector_.fit(features, labels);
}

std::optional<Diagnosis> EarSonar::diagnose(const audio::Waveform& recording) const {
  require(fitted(), "EarSonar::diagnose before fit");
  EchoAnalysis analysis = analyze(recording);
  if (!analysis.usable()) return std::nullopt;
  StageClock clock(pipeline::StageId::kInference, analysis.timings);
  return detector_.predict(analysis.features);
}

Diagnosis EarSonar::diagnose_features(const std::vector<double>& features) const {
  require(fitted(), "EarSonar::diagnose_features before fit");
  obs::Span inference_span("inference", "pipeline");
  return detector_.predict(features);
}

}  // namespace earsonar::core
