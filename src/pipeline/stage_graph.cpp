#include "pipeline/stage_graph.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace earsonar::pipeline {

namespace {

// The one authoritative spelling of each exported stage name. The docs gate
// (scripts/check_docs.sh) greps these EARSONAR_STAGE(...) sites and requires
// every name in docs/architecture.md, so renaming or adding a stage without
// updating the architecture page fails the `docs` ctest.
#define EARSONAR_STAGE(name) #name
constexpr const char* kStageNames[kStageCount] = {
    EARSONAR_STAGE(filter),       EARSONAR_STAGE(event_detect),
    EARSONAR_STAGE(segment),      EARSONAR_STAGE(echo_psd),
    EARSONAR_STAGE(features),     EARSONAR_STAGE(inference),
};
#undef EARSONAR_STAGE

// Bucket b covers [2^(b-10), 2^(b-9)) milliseconds.
std::size_t bucket_of(double ms) {
  if (!(ms > 0.0)) return 0;
  const double b = std::floor(std::log2(ms)) + 10.0;
  if (b < 0.0) return 0;
  if (b >= static_cast<double>(LatencyHistogram::kBuckets))
    return LatencyHistogram::kBuckets - 1;
  return static_cast<std::size_t>(b);
}

}  // namespace

const char* stage_name(StageId id) {
  return kStageNames[static_cast<std::size_t>(id)];
}

std::span<const char* const> stage_names() {
  return {kStageNames, kStageCount};
}

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
  quantile = std::clamp(quantile, 0.0, 1.0);
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
      const double position = rank > seen ? static_cast<double>(rank - seen) : 0.0;
      return lo + lo * std::min(position / static_cast<double>(in_bucket), 1.0);
    }
    seen += in_bucket;
  }
  // Only a read racing record() lands here: report the top bucket's edge.
  return std::exp2(static_cast<double>(kBuckets) - 9.0);
}

void LatencyHistogram::write_text(std::ostream& out, std::string_view stage) const {
  const char* kStats[] = {"mean", "p50", "p95", "p99", "p999"};
  const double values[] = {mean_ms(), percentile_ms(0.50), percentile_ms(0.95),
                           percentile_ms(0.99), percentile_ms(0.999)};
  out << "earsonar_serve_latency_count{stage=\"" << stage << "\"} " << count()
      << '\n';
  for (std::size_t i = 0; i < 5; ++i)
    out << "earsonar_serve_latency_ms{stage=\"" << stage << "\",stat=\"" << kStats[i]
        << "\"} " << values[i] << '\n';
}

void StageGraph::record(StageId id, double busy_ms) {
  StageStats& s = stats(id);
  s.items.fetch_add(1, std::memory_order_relaxed);
  s.passes.fetch_add(1, std::memory_order_relaxed);
  s.busy_us.fetch_add(static_cast<std::uint64_t>(busy_ms * 1000.0),
                      std::memory_order_relaxed);
  s.latency.record(busy_ms);
}

std::string StageGraph::text_snapshot() const {
  std::ostringstream os;
  for (std::size_t i = 0; i < kStageCount; ++i) {
    const StageStats& s = stats_[i];
    const char* name = kStageNames[i];
    os << "earsonar_serve_stage_items{stage=\"" << name << "\"} "
       << s.items.load(std::memory_order_relaxed) << "\n";
    os << "earsonar_serve_stage_passes{stage=\"" << name << "\"} "
       << s.passes.load(std::memory_order_relaxed) << "\n";
    os << "earsonar_serve_stage_busy_ms{stage=\"" << name << "\"} "
       << s.busy_us.load(std::memory_order_relaxed) / 1000.0 << "\n";
    s.latency.write_text(os, name);
  }
  return os.str();
}

}  // namespace earsonar::pipeline
