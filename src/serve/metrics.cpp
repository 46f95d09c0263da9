#include "serve/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <sstream>

#include "common/fault.hpp"

namespace earsonar::serve {

namespace {

// Bucket b covers [2^(b-10), 2^(b-9)) milliseconds.
std::size_t bucket_of(double ms) {
  if (!(ms > 0.0)) return 0;
  const double b = std::floor(std::log2(ms)) + 10.0;
  if (b < 0.0) return 0;
  if (b >= static_cast<double>(LatencyHistogram::kBuckets))
    return LatencyHistogram::kBuckets - 1;
  return static_cast<std::size_t>(b);
}

double bucket_midpoint_ms(std::size_t bucket) {
  // Geometric midpoint of [2^(b-10), 2^(b-9)).
  return std::exp2(static_cast<double>(bucket) - 10.0) * std::numbers::sqrt2;
}

}  // namespace

void LatencyHistogram::record(double ms) {
  buckets_[bucket_of(ms)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  const double ns = ms * 1e6;
  sum_ns_.fetch_add(ns > 0.0 ? static_cast<std::uint64_t>(ns) : 0,
                    std::memory_order_relaxed);
}

std::uint64_t LatencyHistogram::count() const {
  return count_.load(std::memory_order_relaxed);
}

double LatencyHistogram::mean_ms() const {
  const std::uint64_t n = count();
  if (n == 0) return 0.0;
  return static_cast<double>(sum_ns_.load(std::memory_order_relaxed)) / 1e6 /
         static_cast<double>(n);
}

double LatencyHistogram::percentile_ms(double quantile) const {
  const std::uint64_t n = count();
  if (n == 0) return 0.0;
  const auto rank = static_cast<std::uint64_t>(
      std::ceil(quantile * static_cast<double>(n)));
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    seen += buckets_[b].load(std::memory_order_relaxed);
    if (seen >= rank) return bucket_midpoint_ms(b);
  }
  return bucket_midpoint_ms(kBuckets - 1);
}

double LatencyHistogram::percentile_interpolated_ms(double quantile) const {
  const std::uint64_t n = count();
  if (n == 0) return 0.0;
  if (quantile < 0.0) quantile = 0.0;
  if (quantile > 1.0) quantile = 1.0;
  const auto rank = static_cast<std::uint64_t>(
      std::ceil(quantile * static_cast<double>(n)));
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    const std::uint64_t in_bucket = buckets_[b].load(std::memory_order_relaxed);
    if (in_bucket == 0) continue;
    if (seen + in_bucket >= rank) {
      // The rank falls in this bucket; place it linearly within the bucket's
      // [2^(b-10), 2^(b-9)) range by its position among the bucket's samples.
      const double lo = std::exp2(static_cast<double>(b) - 10.0);
      const double hi = lo * 2.0;
      const double position = rank > seen ? static_cast<double>(rank - seen) : 0.0;
      const double frac = position / static_cast<double>(in_bucket);
      return lo + (hi - lo) * std::min(frac, 1.0);
    }
    seen += in_bucket;
  }
  return bucket_midpoint_ms(kBuckets - 1);
}

namespace {

void emit_counter(std::ostringstream& out, const char* name, std::uint64_t value) {
  out << "earsonar_serve_" << name << ' ' << value << '\n';
}

void emit_histogram(std::ostringstream& out, const char* stage,
                    const LatencyHistogram& h) {
  // p999 uses within-bucket interpolation: at log2 granularity the midpoint
  // estimate collapses p99 and p999 onto the same value whenever both ranks
  // land in one bucket, which is exactly the tail the stat exists to split.
  const char* kStats[] = {"mean", "p50", "p95", "p99", "p999"};
  const double values[] = {h.mean_ms(), h.percentile_ms(0.50), h.percentile_ms(0.95),
                           h.percentile_ms(0.99),
                           h.percentile_interpolated_ms(0.999)};
  out << "earsonar_serve_latency_count{stage=\"" << stage << "\"} " << h.count()
      << '\n';
  for (std::size_t i = 0; i < 5; ++i)
    out << "earsonar_serve_latency_ms{stage=\"" << stage << "\",stat=\"" << kStats[i]
        << "\"} " << values[i] << '\n';
}

}  // namespace

std::string ServeMetrics::text_snapshot() const {
  std::ostringstream out;
  emit_counter(out, "requests_accepted_total", accepted.load(std::memory_order_relaxed));
  emit_counter(out, "requests_rejected_total{reason=\"queue_full\"}",
               rejected_queue_full.load(std::memory_order_relaxed));
  emit_counter(out, "requests_rejected_total{reason=\"stopped\"}",
               rejected_stopped.load(std::memory_order_relaxed));
  emit_counter(out, "requests_completed_total", completed.load(std::memory_order_relaxed));
  emit_counter(out, "requests_failed_total", failed.load(std::memory_order_relaxed));
  emit_counter(out, "requests_no_echo_total", no_echo.load(std::memory_order_relaxed));
  emit_counter(out, "requests_deadline_exceeded_total",
               deadline_exceeded.load(std::memory_order_relaxed));
  emit_counter(out, "requests_degraded_total",
               degraded.load(std::memory_order_relaxed));
  emit_counter(out, "model_reload_retries_total",
               model_reload_retries.load(std::memory_order_relaxed));
  emit_counter(out, "faults_injected_total",
               fault::Registry::instance().injected_total());
  emit_counter(out, "chunks_fed_total", chunks_fed.load(std::memory_order_relaxed));
  emit_counter(out, "events_detected_total",
               events_detected.load(std::memory_order_relaxed));
  emit_counter(out, "echoes_segmented_total",
               echoes_segmented.load(std::memory_order_relaxed));
  emit_counter(out, "inferences_total", inferences.load(std::memory_order_relaxed));
  emit_counter(out, "batches_total", batches.load(std::memory_order_relaxed));
  emit_counter(out, "batched_requests_total",
               batched_requests.load(std::memory_order_relaxed));
  for (std::size_t w = 0; w < kWorkloadTypeCount; ++w) {
    const std::string label = to_string(workload_from_index(w));
    const WorkloadCounters& c = workload[w];
    const char* kOutcomes[] = {"accepted", "completed", "failed",
                               "deadline_exceeded"};
    const std::uint64_t values[] = {
        c.accepted.load(std::memory_order_relaxed),
        c.completed.load(std::memory_order_relaxed),
        c.failed.load(std::memory_order_relaxed),
        c.deadline_exceeded.load(std::memory_order_relaxed)};
    for (std::size_t i = 0; i < 4; ++i)
      out << "earsonar_serve_workload_requests_total{workload=\"" << label
          << "\",outcome=\"" << kOutcomes[i] << "\"} " << values[i] << '\n';
    out << "earsonar_serve_workload_batches_total{workload=\"" << label
        << "\"} " << c.batches.load(std::memory_order_relaxed) << '\n';
    out << "earsonar_serve_workload_batched_requests_total{workload=\"" << label
        << "\"} " << c.batched_requests.load(std::memory_order_relaxed) << '\n';
  }
  out << "earsonar_serve_queue_depth "
      << queue_depth.load(std::memory_order_relaxed) << '\n';
  emit_histogram(out, "bandpass", latency.bandpass);
  emit_histogram(out, "event_detect", latency.event_detect);
  emit_histogram(out, "segment", latency.segment);
  emit_histogram(out, "feature", latency.feature);
  emit_histogram(out, "inference", latency.inference);
  emit_histogram(out, "queue_wait", latency.queue_wait);
  emit_histogram(out, "total", latency.total);
  return out.str();
}

}  // namespace earsonar::serve
