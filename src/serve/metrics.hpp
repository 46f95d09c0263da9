// Serving metrics: lock-free counters and latency histograms, exportable as
// a text snapshot (Prometheus exposition style). The histograms extend the
// pipeline's per-stage StageTimings to the serving path: every request
// records its band-pass / event / segmentation / feature / inference stage
// times plus queue wait and end-to-end latency, so a saturating stage shows
// up in the snapshot rather than only in offline benches.
//
// All mutation is relaxed atomics — recording a latency never takes a lock,
// so the hot serving path stays wait-free and the types are safe to share
// across worker threads (exercised under TSan by the `serve` test label).
#pragma once

#include <atomic>
#include <array>
#include <cstddef>
#include <cstdint>
#include <string>

#include "serve/workload.hpp"

namespace earsonar::serve {

/// Log2-bucketed latency histogram. Bucket b covers [2^(b-10), 2^(b-9)) ms,
/// i.e. ~1 us resolution at the bottom and ~16 s at the top; out-of-range
/// samples clamp to the edge buckets. Percentiles are read from the bucket
/// geometry (geometric midpoint), good to a factor of sqrt(2) — plenty to
/// spot a saturated stage, without per-sample storage.
class LatencyHistogram {
 public:
  static constexpr std::size_t kBuckets = 36;

  void record(double ms);

  [[nodiscard]] std::uint64_t count() const;
  [[nodiscard]] double mean_ms() const;
  /// Latency below which `quantile` (in [0, 1]) of samples fall; 0 when empty.
  /// Reads the geometric midpoint of the rank's bucket (factor-of-sqrt(2)
  /// granularity — every sample in a bucket reports the same value).
  [[nodiscard]] double percentile_ms(double quantile) const;
  /// percentile_ms with linear interpolation inside the rank's bucket: the
  /// rank's fractional position among the bucket's samples maps onto the
  /// bucket's [2^(b-10), 2^(b-9)) range. Same bucket storage, but tail
  /// quantiles (p99 vs p999) separate instead of collapsing onto one
  /// midpoint — what the load harness reports (docs/observability.md).
  [[nodiscard]] double percentile_interpolated_ms(double quantile) const;

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_ns_{0};
};

/// Per-stage latency histograms for the serving path: the five StageTimings
/// stages, plus the two the engine adds (queue wait, end-to-end).
struct StageLatencies {
  LatencyHistogram bandpass;
  LatencyHistogram event_detect;
  LatencyHistogram segment;
  LatencyHistogram feature;
  LatencyHistogram inference;
  LatencyHistogram queue_wait;
  LatencyHistogram total;
};

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
  std::atomic<std::int64_t> queue_depth{0};
  // Per-stage throughput counters fed from the pipeline's trace spans: how
  // much work each stage produced, complementing the latency histograms'
  // how-long (docs/observability.md enumerates all exported names).
  std::atomic<std::uint64_t> events_detected{0};   ///< chirp events, all requests
  std::atomic<std::uint64_t> echoes_segmented{0};  ///< segmented eardrum echoes
  std::atomic<std::uint64_t> inferences{0};        ///< detector predictions run
  // Cross-request batching (docs/serving.md "Batching semantics"): how many
  // multi-request batch passes ran and how many requests rode them. Passes
  // that fell back to batches of one are counted by pipeline::StageGraph.
  std::atomic<std::uint64_t> batches{0};
  std::atomic<std::uint64_t> batched_requests{0};
  /// Per-workload-type accounting (docs/workloads.md): the engine carries
  /// mixed EarSonar + absorbance traffic; these split the request lifecycle
  /// by type so per-type accounting is exact —
  /// accepted == completed + failed + deadline_exceeded once drained —
  /// and batch passes are provably type-pure (a pass only ever ticks one
  /// type's batch counters).
  struct WorkloadCounters {
    std::atomic<std::uint64_t> accepted{0};
    std::atomic<std::uint64_t> completed{0};
    std::atomic<std::uint64_t> failed{0};
    std::atomic<std::uint64_t> deadline_exceeded{0};
    std::atomic<std::uint64_t> batches{0};           ///< type-pure batch passes
    std::atomic<std::uint64_t> batched_requests{0};  ///< requests riding them
  };
  std::array<WorkloadCounters, kWorkloadTypeCount> workload;
  StageLatencies latency;

  /// End-to-end latency percentile (interpolated) for `p` in [0, 1] — the
  /// one-call answer to "what is this engine's p50/p99/p999 right now",
  /// used by the stats frames the networked front-end serves and by the
  /// load generator's report.
  [[nodiscard]] double latency_percentile(double p) const {
    return latency.total.percentile_interpolated_ms(p);
  }

  /// Prometheus-style exposition text of every counter and histogram.
  [[nodiscard]] std::string text_snapshot() const;
};

}  // namespace earsonar::serve
