#include "serve/streaming.hpp"

#include <algorithm>
#include <optional>
#include <sstream>
#include <utility>

#include "common/error.hpp"
#include "common/fault.hpp"
#include "core/preprocess.hpp"
#include "obs/trace.hpp"

namespace earsonar::serve {

void StreamingConfig::validate() const {
  require(!pipeline.preprocess.zero_phase,
          "StreamingConfig: zero-phase (filtfilt) preprocessing has no "
          "streaming form; set pipeline.preprocess.zero_phase = false");
  require(max_buffered_samples >= 1024,
          "StreamingConfig: max_buffered_samples must be >= 1024");
}

StreamingSession::StreamingSession(StreamingConfig config)
    : config_(std::move(config)),
      filter_(core::Preprocessor(config_.pipeline.preprocess)
                  .streaming_filter(config_.pipeline.chirp.sample_rate)),
      fold_(config_.pipeline.events.smooth, nullptr) {
  config_.validate();
}

void StreamingSession::reserve(std::size_t samples) {
  const std::size_t n = std::min(samples, config_.max_buffered_samples);
  filtered_.reserve(n);
  envelope_.reserve(n);
}

FeedStatus StreamingSession::feed(std::span<const double> chunk) {
  require(!finished_, "StreamingSession: feed after finish");
  if (chunk.empty()) return FeedStatus::kAccepted;
  if (fault::point("serve.stream.feed")) fail("injected fault: serve.stream.feed");
  // Opened only while tracing: an unarmed span still reads the clock
  // twice, and a recording arrives in ~17 chunks.
  std::optional<obs::Span> feed_span;
  if (obs::TraceRecorder::instance().enabled()) {
    feed_span.emplace("stream_feed", "stream");
    feed_span->set_arg("samples", static_cast<std::int64_t>(chunk.size()));
  }

  if (config_.overflow == StreamingConfig::OverflowPolicy::kReject &&
      filtered_.size() + chunk.size() > config_.max_buffered_samples) {
    // Reject *before* touching the filter, so the accepted stream stays
    // contiguous and a later finish() is still exact for everything accepted.
    ++rejected_chunks_;
    return FeedStatus::kRejected;
  }
  // Append the raw chunk and filter it where it lies: no per-chunk
  // temporary vector. Until an eviction the samples before it are all in
  // filtered_, as the envelope fold requires.
  const std::size_t tail = filtered_.size();
  filtered_.insert(filtered_.end(), chunk.begin(), chunk.end());
  const std::span<double> fresh = std::span<double>(filtered_).subspan(tail);
  if (truncated()) {
    filter_.process_in_place(fresh);
  } else {
    envelope_.resize(filtered_.size());
    fold_.row = envelope_.data();
    filter_.process_in_place(fresh, &fold_);
  }
  samples_fed_ += chunk.size();
  if (filtered_.size() > config_.max_buffered_samples) {
    // kEvictOldest: the stored prefix is lost, taking finish()'s exactness
    // and the whole-stream envelope with it.
    const std::size_t drop = filtered_.size() - config_.max_buffered_samples;
    filtered_.erase(filtered_.begin(),
                    filtered_.begin() + static_cast<std::ptrdiff_t>(drop));
    base_ += drop;
    std::vector<double>().swap(envelope_);
  }
  return FeedStatus::kAccepted;
}

core::EchoAnalysis StreamingSession::finish(const core::EarSonar& pipeline,
                                            const CancelToken& cancel,
                                            pipeline::StageGraph* graph) {
  require(!finished_, "StreamingSession: finish twice");
  require(samples_fed_ > 0, "StreamingSession: finish with no audio fed");
  obs::Span finish_span("stream_finish", "stream");
  finish_span.set_arg("samples", static_cast<std::int64_t>(samples_fed_));
  finished_ = true;
  // The folded envelope serves event detection when it covers the analyzed
  // samples with the pipeline's window: not after an eviction, nor for a
  // recording shorter than the window (whose fold shrinks the window).
  const bool folded = !truncated() && fold_.count >= fold_.smooth &&
                      pipeline.config().events.smooth == fold_.smooth;
  const audio::Waveform wave(std::move(filtered_), config_.pipeline.chirp.sample_rate);
  filtered_.clear();
  finish_span.end();
  core::EchoAnalysis analysis =
      pipeline.analyze_filtered(wave, cancel, graph, folded ? &fold_ : nullptr);
  if (truncated()) {
    // Evicted samples mean the analysis only saw the retained tail: the
    // result is valid but partial — surface that as degradation.
    std::ostringstream os;
    os << "stream evicted " << base_ << " of " << samples_fed_ << " samples";
    core::AnalysisQuality& quality = analysis.quality;
    quality.drops.push_back({core::ChirpDrop::kWholeStage, "stream", os.str()});
    quality.chirps_dropped = quality.drops.size();
    quality.degraded = true;
  }
  return analysis;
}

}  // namespace earsonar::serve
