#include "serve/streaming.hpp"

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
                  .streaming_filter(config_.pipeline.chirp.sample_rate)) {
  config_.validate();
  filtered_.reserve(std::min<std::size_t>(config_.max_buffered_samples, 1 << 20));
}

FeedStatus StreamingSession::feed(std::span<const double> chunk) {
  require(!finished_, "StreamingSession: feed after finish");
  if (chunk.empty()) return FeedStatus::kAccepted;
  if (fault::point("serve.stream.feed")) fail("injected fault: serve.stream.feed");
  obs::Span feed_span("stream_feed", "stream");
  feed_span.set_arg("samples", static_cast<std::int64_t>(chunk.size()));

  if (config_.overflow == StreamingConfig::OverflowPolicy::kReject &&
      filtered_.size() + chunk.size() > config_.max_buffered_samples) {
    // Reject *before* touching the filter, so the accepted stream stays
    // contiguous and a later finish() is still exact for everything accepted.
    ++rejected_chunks_;
    return FeedStatus::kRejected;
  }
  // Append the raw chunk and filter it where it lies: no per-chunk
  // temporary vector.
  const std::size_t tail = filtered_.size();
  filtered_.insert(filtered_.end(), chunk.begin(), chunk.end());
  filter_.process_in_place(std::span<double>(filtered_).subspan(tail));
  samples_fed_ += chunk.size();
  if (filtered_.size() > config_.max_buffered_samples) {
    // kEvictOldest: the stored prefix is lost, taking finish()'s exactness
    // with it.
    const std::size_t drop = filtered_.size() - config_.max_buffered_samples;
    filtered_.erase(filtered_.begin(),
                    filtered_.begin() + static_cast<std::ptrdiff_t>(drop));
    base_ += drop;
  }
  return FeedStatus::kAccepted;
}

std::vector<core::AnalysisOutcome> StreamingSession::finish(
    const core::EarSonar& pipeline, std::span<StreamingSession* const> sessions,
    std::span<const CancelToken> cancels, pipeline::StageGraph* graph) {
  require(sessions.size() == cancels.size(),
          "StreamingSession::finish: one cancel token per session");
  const std::size_t n = sessions.size();
  std::vector<core::AnalysisOutcome> out(n);
  std::vector<audio::Waveform> waves(n);
  std::vector<core::AnalysisItem> items;
  std::vector<std::size_t> idx;  // items[j] belongs to sessions[idx[j]]
  items.reserve(n);
  idx.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    StreamingSession* s = sessions[i];
    // Per-session capture: one session's finish-guard failure must not take
    // down its lane-mates.
    try {
      require(s != nullptr, "StreamingSession::finish: null session");
      require(!s->finished_, "StreamingSession: finish twice");
      require(s->samples_fed_ > 0, "StreamingSession: finish with no audio fed");
      obs::Span finish_span("stream_finish", "stream");
      finish_span.set_arg("samples", static_cast<std::int64_t>(s->samples_fed_));
      s->finished_ = true;
      waves[i] = audio::Waveform(std::move(s->filtered_),
                                 s->config_.pipeline.chirp.sample_rate);
      s->filtered_.clear();
      items.push_back({&waves[i], cancels[i]});
      idx.push_back(i);
    } catch (...) {
      out[i].error = std::current_exception();
    }
  }
  std::vector<core::AnalysisOutcome> results = pipeline.analyze_filtered(items, graph);
  for (std::size_t j = 0; j < idx.size(); ++j) {
    const StreamingSession& s = *sessions[idx[j]];
    core::AnalysisOutcome& outcome = out[idx[j]] = std::move(results[j]);
    if (outcome.ok() && s.truncated()) {
      // Evicted samples mean the analysis only saw the retained tail: the
      // result is valid but partial — surface that as degradation.
      std::ostringstream os;
      os << "stream evicted " << s.base_ << " of " << s.samples_fed_ << " samples";
      core::AnalysisQuality& quality = outcome.analysis.quality;
      quality.drops.push_back({core::ChirpDrop::kWholeStage, "stream", os.str()});
      quality.chirps_dropped = quality.drops.size();
      quality.degraded = true;
    }
  }
  return out;
}

core::EchoAnalysis StreamingSession::finish(const core::EarSonar& pipeline,
                                            const CancelToken& cancel) {
  StreamingSession* self = this;
  core::AnalysisOutcome outcome =
      std::move(finish(pipeline, {&self, 1}, {&cancel, 1}).front());
  if (!outcome.ok()) std::rethrow_exception(outcome.error);
  return std::move(outcome.analysis);
}

}  // namespace earsonar::serve
