#include "serve/metrics.hpp"

#include <sstream>

#include "common/fault.hpp"

namespace earsonar::serve {

namespace {

void emit_counter(std::ostringstream& out, const char* name, std::uint64_t value) {
  out << "earsonar_serve_" << name << ' ' << value << '\n';
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
  emit_counter(out, "chunks_refused_total", chunks_refused.load(std::memory_order_relaxed));
  emit_counter(out, "events_detected_total",
               events_detected.load(std::memory_order_relaxed));
  emit_counter(out, "echoes_segmented_total",
               echoes_segmented.load(std::memory_order_relaxed));
  emit_counter(out, "batches_total", batches.load(std::memory_order_relaxed));
  emit_counter(out, "batched_requests_total",
               batched_requests.load(std::memory_order_relaxed));
  out << "earsonar_serve_queue_depth "
      << queue_depth.load(std::memory_order_relaxed) << '\n';
  latency.queue_wait.write_text(out, "queue_wait");
  latency.total.write_text(out, "total");
  return out.str();
}

}  // namespace earsonar::serve
