#include "serve/streaming.hpp"

#include <sstream>
#include <utility>

#include "common/error.hpp"
#include "common/fault.hpp"
#include "core/preprocess.hpp"
#include "dsp/multibiquad.hpp"
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

bool StreamingSession::reject_would_overflow(std::size_t incoming) {
  if (config_.overflow == StreamingConfig::OverflowPolicy::kReject &&
      filtered_.size() + incoming > config_.max_buffered_samples) {
    // Reject *before* touching the filter, so the accepted stream stays
    // contiguous and a later finish() is still exact for everything accepted.
    ++rejected_chunks_;
    return true;
  }
  return false;
}

void StreamingSession::ingest_filtered(std::span<const double> filtered,
                                       std::size_t fed) {
  samples_fed_ += fed;
  filtered_.insert(filtered_.end(), filtered.begin(), filtered.end());
  if (filtered_.size() > config_.max_buffered_samples) {
    // kEvictOldest: the stored prefix is lost, taking finish()'s exactness
    // with it.
    const std::size_t drop = filtered_.size() - config_.max_buffered_samples;
    filtered_.erase(filtered_.begin(),
                    filtered_.begin() + static_cast<std::ptrdiff_t>(drop));
    base_ += drop;
  }
}

FeedStatus StreamingSession::feed(std::span<const double> chunk) {
  require(!finished_, "StreamingSession: feed after finish");
  if (chunk.empty()) return FeedStatus::kAccepted;
  if (fault::point("serve.stream.feed")) fail("injected fault: serve.stream.feed");
  obs::Span feed_span("stream_feed", "stream");
  feed_span.set_arg("samples", static_cast<std::int64_t>(chunk.size()));

  if (reject_would_overflow(chunk.size())) return FeedStatus::kRejected;
  const std::vector<double> out = filter_.process(chunk);
  ingest_filtered(out, chunk.size());
  return FeedStatus::kAccepted;
}

std::vector<FeedStatus> StreamingSession::feed_many(
    std::span<StreamingSession* const> sessions,
    std::span<const std::span<const double>> chunks) {
  require(sessions.size() == chunks.size(),
          "StreamingSession::feed_many: one chunk per session required");
  std::vector<FeedStatus> status(sessions.size(), FeedStatus::kAccepted);
  if (sessions.empty()) return status;
  obs::Span many_span("stream_feed_many", "stream");
  many_span.set_arg("sessions", static_cast<std::int64_t>(sessions.size()));

  // Phase 1 — per-session admission, in order, with feed()'s exact gate
  // semantics (finish guard, empty fast-path, fault point, capacity check).
  std::vector<std::size_t> ready;
  ready.reserve(sessions.size());
  for (std::size_t i = 0; i < sessions.size(); ++i) {
    StreamingSession* s = sessions[i];
    require(s != nullptr, "StreamingSession::feed_many: null session");
    require(!s->finished_, "StreamingSession: feed after finish");
    if (chunks[i].empty()) continue;
    if (fault::point("serve.stream.feed")) fail("injected fault: serve.stream.feed");
    if (s->reject_would_overflow(chunks[i].size())) {
      status[i] = FeedStatus::kRejected;
      continue;
    }
    ready.push_back(i);
  }

  // Phase 2 — group admitted sessions by identical filter design and equal
  // chunk length; each group runs one interleaved multi-channel filter pass.
  // Per-lane arithmetic matches BiquadCascade::process exactly, so every
  // session's stream is bit-identical to the sequential path.
  const auto same_design = [](const dsp::BiquadCascade& a, const dsp::BiquadCascade& b) {
    if (a.section_count() != b.section_count()) return false;
    for (std::size_t s = 0; s < a.section_count(); ++s) {
      const dsp::Biquad &x = a.sections()[s], &y = b.sections()[s];
      if (x.b0 != y.b0 || x.b1 != y.b1 || x.b2 != y.b2 || x.a1 != y.a1 ||
          x.a2 != y.a2)
        return false;
    }
    return true;
  };
  std::vector<bool> grouped(ready.size(), false);
  for (std::size_t a = 0; a < ready.size(); ++a) {
    if (grouped[a]) continue;
    std::vector<std::size_t> group{ready[a]};
    for (std::size_t b = a + 1; b < ready.size(); ++b) {
      if (grouped[b]) continue;
      if (chunks[ready[b]].size() != chunks[ready[a]].size()) continue;
      if (!same_design(sessions[ready[b]]->filter_, sessions[ready[a]]->filter_))
        continue;
      grouped[b] = true;
      group.push_back(ready[b]);
    }
    grouped[a] = true;

    if (group.size() == 1) {
      StreamingSession* s = sessions[group[0]];
      obs::Span feed_span("stream_feed", "stream");
      feed_span.set_arg("samples", static_cast<std::int64_t>(chunks[group[0]].size()));
      s->ingest_filtered(s->filter_.process(chunks[group[0]]), chunks[group[0]].size());
      continue;
    }

    const std::size_t n = chunks[group[0]].size();
    dsp::MultiBiquadCascade multi(sessions[group[0]]->filter_.sections(),
                                  group.size());
    std::vector<std::vector<double>> outs(group.size(), std::vector<double>(n));
    std::vector<std::span<const double>> ins(group.size());
    std::vector<std::span<double>> out_spans(group.size());
    for (std::size_t lane = 0; lane < group.size(); ++lane) {
      multi.set_channel_state(lane, sessions[group[lane]]->filter_.state());
      ins[lane] = chunks[group[lane]];
      out_spans[lane] = outs[lane];
    }
    multi.process(ins, out_spans);
    for (std::size_t lane = 0; lane < group.size(); ++lane) {
      StreamingSession* s = sessions[group[lane]];
      std::vector<dsp::BiquadCascade::State> state(s->filter_.section_count());
      multi.get_channel_state(lane, state);
      s->filter_.set_state(std::move(state));
      obs::Span feed_span("stream_feed", "stream");
      feed_span.set_arg("samples", static_cast<std::int64_t>(n));
      s->ingest_filtered(outs[lane], n);
    }
  }
  return status;
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
