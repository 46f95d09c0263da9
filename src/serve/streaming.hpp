// Streaming ingestion: chunk-at-a-time analysis sessions.
//
// Every batch entry point needs the complete recording in memory; a deployed
// screener receives audio as a stream of small chunks from the earbud. A
// StreamingSession accepts arbitrary-size chunks and band-pass filters them
// as they arrive: the filter is stateful (`dsp::BiquadCascade` carried
// across chunks) and bit-identical to filtering the concatenated signal, so
// the session stores only *filtered* samples. Each filtered sample is also
// folded into the event detector's power envelope (`dsp::EnvelopeFold`,
// carried across chunks like the filter state), in the band-pass loop
// itself for the designed four-section band-pass.
//
// finish() ends the session and hands its buffered filtered samples and
// their envelope to `core::EarSonar::analyze_filtered` — the same
// post-filter walk `EarSonar::analyze` runs, whose event detection then
// only closes and scans the envelope. Because causal
// filtering commutes with chunking, a finished session is bit-identical —
// same features, same diagnosis — to `EarSonar::analyze` on the whole
// recording with the same (causal) configuration, at every chunk size.
//
// The sample store is bounded. A chunk that would overflow it is rejected
// with no state change — the backpressure signal a serving engine
// propagates to the device — so the accepted stream stays contiguous and
// finish() stays exact for everything accepted.
//
// The buffers grow as chunks arrive; a caller that knows the recording's
// length up front reserves it (reserve()).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "core/pipeline.hpp"
#include "dsp/biquad.hpp"
#include "dsp/envelope.hpp"
#include "pipeline/stage_graph.hpp"

namespace earsonar::serve {

struct StreamingConfig {
  core::PipelineConfig pipeline;  ///< must have preprocess.zero_phase = false
  /// Bound on buffered (filtered) samples: 20 s at the probe rate by default.
  /// A chunk that would overflow it is refused (feed() returns kRejected).
  std::size_t max_buffered_samples = 20UL * 48000UL;

  void validate() const;
};

enum class FeedStatus { kAccepted, kRejected };

class StreamingSession {
 public:
  explicit StreamingSession(StreamingConfig config = {});

  /// Reserves room for `samples` samples (at most the buffer bound), so a
  /// whole recording fed in chunks never reallocates.
  void reserve(std::size_t samples);

  /// Ingests one chunk at the pipeline sample rate (any size, including
  /// empty). Returns kRejected — with no state change — when the chunk
  /// would overflow max_buffered_samples.
  FeedStatus feed(std::span<const double> chunk);

  /// Ends the session and analyzes its samples through `pipeline` (see
  /// core::EarSonar::analyze_filtered), whose config must match the
  /// session's pipeline config. Throws on a finish-guard failure (finished twice,
  /// nothing fed), the degradation floor, or CancelledError once `cancel`
  /// expires. `graph` optionally receives per-stage occupancy.
  core::EchoAnalysis finish(const core::EarSonar& pipeline,
                            const CancelToken& cancel = {},
                            pipeline::StageGraph* graph = nullptr);

 private:
  StreamingConfig config_;
  dsp::BiquadCascade filter_;

  std::vector<double> filtered_;
  /// The power envelope of filtered_: row envelope_, one center per sample.
  std::vector<double> envelope_;
  dsp::EnvelopeFold fold_;
  bool finished_ = false;
};

}  // namespace earsonar::serve
