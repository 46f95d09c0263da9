// Serving metrics: lock-free counters and the queue-wait and end-to-end
// latency histograms, exportable as a text snapshot (Prometheus exposition
// style). Per-stage latency lives with the stage's occupancy counters in
// pipeline::StageGraph, fed from the one record each stage execution makes.
//
// All mutation is relaxed atomics — recording a latency never takes a lock,
// so the hot serving path stays wait-free and the types are safe to share
// across worker threads (exercised under TSan by the `serve` test label).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>

#include "pipeline/stage_graph.hpp"

namespace earsonar::serve {

/// Counters + histograms for one ServingEngine.
struct ServeMetrics {
  std::atomic<std::uint64_t> accepted{0};
  std::atomic<std::uint64_t> rejected_queue_full{0};
  std::atomic<std::uint64_t> rejected_stopped{0};
  std::atomic<std::uint64_t> completed{0};
  std::atomic<std::uint64_t> failed{0};    ///< processing threw
  std::atomic<std::uint64_t> no_echo{0};   ///< completed but unusable recording
  std::atomic<std::uint64_t> deadline_exceeded{0};  ///< shed or cancelled on deadline
  std::atomic<std::uint64_t> degraded{0};  ///< completed with a degraded quality report
  std::atomic<std::uint64_t> model_reload_retries{0};  ///< --watch reload backoff retries
  std::atomic<std::uint64_t> chunks_fed{0};
  /// Chunks refused at the session buffer bound: a networked session's
  /// Error(kStreamOverflow), or an in-process recording that failed whole.
  std::atomic<std::uint64_t> chunks_refused{0};
  std::atomic<std::int64_t> queue_depth{0};
  // Per-stage throughput counters: how much work each stage produced,
  // complementing the stage graph's how-long (docs/observability.md
  // enumerates all exported names).
  std::atomic<std::uint64_t> events_detected{0};   ///< chirp events, all requests
  std::atomic<std::uint64_t> echoes_segmented{0};  ///< segmented eardrum echoes
  // Dequeue batching (docs/serving.md "Dequeue semantics"): how many worker
  // wake-ups took more than one job, and how many jobs they took.
  std::atomic<std::uint64_t> batches{0};
  std::atomic<std::uint64_t> batched_requests{0};
  /// The two latencies no single stage owns; per-stage histograms live in
  /// pipeline::StageGraph.
  struct {
    pipeline::LatencyHistogram queue_wait;  ///< submit() enqueue -> dequeue
    pipeline::LatencyHistogram total;       ///< enqueue -> result ready
  } latency;

  /// Prometheus-style exposition text of every counter and histogram.
  [[nodiscard]] std::string text_snapshot() const;
};

}  // namespace earsonar::serve
