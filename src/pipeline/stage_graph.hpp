// The explicit stage graph behind analyze(): every request flows
//
//   filter -> event_detect -> segment -> echo_psd -> features -> inference
//
// (docs/architecture.md draws the full picture), one request at a time:
// the serving engine filters each session on its own and core::EarSonar's
// analyze_filtered() walks the post-filter stages. This layer names the
// stages as first-class nodes and counts their occupancy, so the counters
// show where a request's time goes.
// It depends on nothing else in the repository, so every layer above it can
// record into a StageGraph.
//
// The graph is a straight line today (each stage's output feeds exactly the
// next stage), so the edge list is implicit in the StageId order; what the
// graph abstraction buys is the per-stage seam: a place to count, and a
// stable set of exported stage names the docs gate pins.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <string_view>

namespace earsonar::pipeline {

/// The stage nodes, in dataflow order.
enum class StageId : std::size_t {
  kFilter = 0,     ///< band-pass preprocessing (streaming: chunked biquads)
  kEventDetect,    ///< adaptive-energy chirp event detection
  kSegment,        ///< parity-decomposition echo segmentation, per chirp
  kEchoPsd,        ///< windowed band PSD per echo, four echoes per transform
  kFeatures,       ///< 105-dim feature assembly from the per-echo PSDs
  kInference,      ///< detection head on the feature vector
};

inline constexpr std::size_t kStageCount = 6;

/// Stable exported stage name ("filter", "event_detect", ...). These names
/// appear in metric lines and spans, and scripts/check_docs.sh requires each
/// of them in docs/architecture.md.
[[nodiscard]] const char* stage_name(StageId id);

/// All stage names, in dataflow order.
[[nodiscard]] std::span<const char* const> stage_names();

/// Log2-bucketed latency histogram. Bucket b covers [2^(b-10), 2^(b-9)) ms,
/// i.e. ~1 us resolution at the bottom and ~16 s at the top; out-of-range
/// samples clamp to the edge buckets. Relaxed atomics: recording never takes
/// a lock, so the type is safe to share across worker threads.
class LatencyHistogram {
 public:
  static constexpr std::size_t kBuckets = 36;

  void record(double ms);

  [[nodiscard]] std::uint64_t count() const;
  [[nodiscard]] double mean_ms() const;
  /// Latency below which `quantile` (clamped to [0, 1]) of samples fall; 0
  /// when empty. The rank's position among its bucket's samples maps
  /// linearly onto the bucket's [2^(b-10), 2^(b-9)) range, so tail quantiles
  /// (p99 vs p999) separate instead of snapping to one value per bucket.
  [[nodiscard]] double percentile_ms(double quantile) const;

  /// Appends the `earsonar_serve_latency_count` / `earsonar_serve_latency_ms`
  /// lines (mean, p50, p95, p99, p999) labelled `stage`.
  void write_text(std::ostream& out, std::string_view stage) const;

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_ns_{0};
};

/// Occupancy counters of one stage node. `items` counts requests entering
/// the stage and `passes` counts executions; every pass carries one
/// request, so the two agree. `latency` holds one sample per pass: its
/// count equals `passes`.
/// Updated with relaxed atomics from worker threads; a snapshot is a
/// consistent-enough monotonic read, same as serve::ServeMetrics.
struct StageStats {
  std::atomic<std::uint64_t> items{0};
  std::atomic<std::uint64_t> passes{0};
  std::atomic<std::uint64_t> busy_us{0};  ///< wall time inside the stage
  LatencyHistogram latency;               ///< wall time of each pass
};

/// The stage nodes plus their occupancy counters; one instance per serving
/// engine. Thread-safe.
class StageGraph {
 public:
  [[nodiscard]] StageStats& stats(StageId id) {
    return stats_[static_cast<std::size_t>(id)];
  }
  [[nodiscard]] const StageStats& stats(StageId id) const {
    return stats_[static_cast<std::size_t>(id)];
  }

  /// Records one pass of one request through `id` that took `busy_ms` wall
  /// milliseconds. Feeds every counter and the latency histogram.
  void record(StageId id, double busy_ms);

  /// Prometheus-style text lines (earsonar_serve_stage_* gauges and the
  /// earsonar_serve_latency_* histogram lines with a stage label), appended
  /// to the serving metrics snapshot.
  [[nodiscard]] std::string text_snapshot() const;

 private:
  std::array<StageStats, kStageCount> stats_;
};

}  // namespace earsonar::pipeline
