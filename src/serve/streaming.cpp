#include "serve/streaming.hpp"

#include <algorithm>
#include <optional>
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

  if (filtered_.size() + chunk.size() > config_.max_buffered_samples) {
    // Reject *before* touching the filter, so the accepted stream stays
    // contiguous and a later finish() is still exact for everything accepted.
    return FeedStatus::kRejected;
  }
  // Append the raw chunk and filter it where it lies: no per-chunk
  // temporary vector. The samples before it are all in filtered_, as the
  // envelope fold requires.
  const std::size_t tail = filtered_.size();
  filtered_.insert(filtered_.end(), chunk.begin(), chunk.end());
  envelope_.resize(filtered_.size());
  fold_.row = envelope_.data();
  filter_.process_in_place(std::span<double>(filtered_).subspan(tail), &fold_);
  return FeedStatus::kAccepted;
}

core::EchoAnalysis StreamingSession::finish(const core::EarSonar& pipeline,
                                            const CancelToken& cancel,
                                            pipeline::StageGraph* graph) {
  require(!finished_, "StreamingSession: finish twice");
  require(!filtered_.empty(), "StreamingSession: finish with no audio fed");
  obs::Span finish_span("stream_finish", "stream");
  finish_span.set_arg("samples", static_cast<std::int64_t>(filtered_.size()));
  finished_ = true;
  // The folded envelope serves event detection when it covers the analyzed
  // samples with the pipeline's window: not for a recording shorter than
  // the window (whose fold shrinks the window).
  const bool folded = fold_.count >= fold_.smooth &&
                      pipeline.config().events.smooth == fold_.smooth;
  const audio::Waveform wave(std::move(filtered_), config_.pipeline.chirp.sample_rate);
  filtered_.clear();
  finish_span.end();
  return pipeline.analyze_filtered(wave, cancel, graph, folded ? &fold_ : nullptr);
}

}  // namespace earsonar::serve
