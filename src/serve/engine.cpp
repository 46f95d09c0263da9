#include "serve/engine.hpp"

#include <algorithm>
#include <exception>
#include <sstream>
#include <utility>

#include "common/error.hpp"
#include "dsp/interpolate.hpp"
#include "obs/trace.hpp"

namespace earsonar::serve {

namespace {
using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

/// The result of a job whose processing threw `error`: a deadline is
/// reported as such, anything else as a failure.
ServeResult error_result(const std::string& id, const std::exception_ptr& error) {
  ServeResult result;
  result.id = id;
  try {
    std::rethrow_exception(error);
  } catch (const CancelledError& e) {
    result.deadline_exceeded = true;
    result.error = e.what();
  } catch (const std::exception& e) {
    result.error = e.what();
  } catch (...) {
    result.error = "unknown error";
  }
  return result;
}
}  // namespace

void EngineConfig::validate() const {
  require(workers >= 1, "EngineConfig: workers must be >= 1");
  require(queue_capacity >= 1, "EngineConfig: queue_capacity must be >= 1");
  require(chunk_samples >= 1, "EngineConfig: chunk_samples must be >= 1");
  require(batch_max >= 1, "EngineConfig: batch_max must be >= 1");
  session.validate();
}

ServingEngine::ServingEngine(EngineConfig config)
    : config_(std::move(config)),
      pipeline_(config_.session.pipeline),
      queue_(config_.queue_capacity) {
  config_.validate();
}

ServingEngine::~ServingEngine() { stop(); }

void ServingEngine::start() {
  if (running_.exchange(true)) return;
  queue_.reopen();
  workers_.reserve(config_.workers);
  for (std::size_t i = 0; i < config_.workers; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

void ServingEngine::stop() {
  if (!running_.exchange(false)) return;
  // close() wakes every worker; they drain the remaining accepted jobs before
  // pop() returns false, so no accepted request is dropped.
  queue_.close();
  for (std::thread& worker : workers_) worker.join();
  workers_.clear();
}

Submission ServingEngine::submit(ServeRequest request) {
  Submission submission;
  if (!running_.load()) {
    metrics_.rejected_stopped.fetch_add(1, std::memory_order_relaxed);
    submission.reason = "engine not running";
    return submission;
  }
  Job job{std::move(request), {}, Clock::now(), std::nullopt};
  if (job.request.timeout_ms > 0.0) {
    // The deadline clock starts at submission: queue wait counts against it,
    // which is what lets workers shed stale jobs without touching them.
    job.deadline = job.enqueued + std::chrono::duration_cast<Clock::duration>(
                                      std::chrono::duration<double, std::milli>(
                                          job.request.timeout_ms));
  }
  submission.result = job.promise.get_future();
  if (!queue_.try_push(std::move(job))) {
    submission.result = {};
    if (!running_.load() || queue_.closed()) {
      metrics_.rejected_stopped.fetch_add(1, std::memory_order_relaxed);
      submission.reason = "engine not running";
    } else {
      metrics_.rejected_queue_full.fetch_add(1, std::memory_order_relaxed);
      std::ostringstream reason;
      reason << "queue full (capacity " << config_.queue_capacity << ")";
      submission.reason = reason.str();
    }
    return submission;
  }
  metrics_.accepted.fetch_add(1, std::memory_order_relaxed);
  metrics_.queue_depth.fetch_add(1, std::memory_order_relaxed);
  submission.accepted = true;
  return submission;
}

void ServingEngine::worker_loop() {
  // One span per worker thread: its row in the trace viewer shows the
  // worker's occupancy between start() and stop().
  obs::Span worker_span("worker", "serve");
  Job job;
  std::vector<Job> batch;
  while (queue_.pop(job)) {
    // The first pop leads a batch; linger up to batch_wait_us for stragglers
    // (or until the batch fills). A closed queue cuts the linger short, so
    // stop() still drains promptly. At batch_max 1 the job is a batch of one.
    batch.push_back(std::move(job));
    if (config_.batch_max > 1) {
      obs::Span collect_span("batch_collect", "serve");
      const auto linger_until =
          Clock::now() + std::chrono::microseconds(config_.batch_wait_us);
      Job extra;
      while (batch.size() < config_.batch_max &&
             queue_.try_pop_until(extra, linger_until))
        batch.push_back(std::move(extra));
      collect_span.set_arg("requests", static_cast<std::int64_t>(batch.size()));
    }
    process_batch(batch);
    batch.clear();
  }
}

std::optional<CancelToken> ServingEngine::admit_dequeued(Job& job,
                                                         double& queue_ms) {
  metrics_.queue_depth.fetch_sub(1, std::memory_order_relaxed);
  const auto dequeued = Clock::now();
  queue_ms =
      std::chrono::duration<double, std::milli>(dequeued - job.enqueued).count();
  metrics_.latency.queue_wait.record(queue_ms);
  // Queue wait spans submit() on one thread to pop() on another; record it
  // with explicit endpoints on the consuming worker's row.
  obs::TraceRecorder::instance().record_complete("queue_wait", "serve",
                                                 job.enqueued, dequeued);
  const CancelToken cancel = job.deadline ? CancelToken::with_deadline(*job.deadline)
                                          : CancelToken();
  if (cancel.expired()) {
    // Shed at dequeue: the caller's deadline passed while the job waited in
    // the queue, in a leader's batch-collect linger, or behind its
    // batch-mates, so no pipeline work is worth doing. Counted separately
    // from failures — the engine did nothing wrong, it was just too busy.
    ServeResult shed;
    shed.id = job.request.id;
    shed.deadline_exceeded = true;
    shed.error = "deadline_exceeded: shed at dequeue";
    shed.queue_ms = queue_ms;
    shed.total_ms = ms_since(job.enqueued);
    metrics_.deadline_exceeded.fetch_add(1, std::memory_order_relaxed);
    job.promise.set_value(std::move(shed));
    return std::nullopt;
  }
  return cancel;
}

void ServingEngine::finish_job(Job& job, ServeResult result, double queue_ms) {
  result.queue_ms = queue_ms;
  result.total_ms = ms_since(job.enqueued);
  metrics_.latency.total.record(result.total_ms);
  if (result.deadline_exceeded) {
    metrics_.deadline_exceeded.fetch_add(1, std::memory_order_relaxed);
  } else if (!result.error.empty()) {
    metrics_.failed.fetch_add(1, std::memory_order_relaxed);
  } else {
    metrics_.completed.fetch_add(1, std::memory_order_relaxed);
    if (!result.usable) metrics_.no_echo.fetch_add(1, std::memory_order_relaxed);
    if (result.quality.degraded)
      metrics_.degraded.fetch_add(1, std::memory_order_relaxed);
  }
  job.promise.set_value(std::move(result));
}

ServeResult ServingEngine::finalize_analysis(const std::string& id,
                                             core::EchoAnalysis analysis) {
  ServeResult result;
  result.id = id;
  result.usable = analysis.usable();
  result.events = analysis.events.size();
  result.echoes = analysis.echoes.size();
  result.quality = analysis.quality;
  result.timings = analysis.timings;
  metrics_.events_detected.fetch_add(result.events, std::memory_order_relaxed);
  metrics_.echoes_segmented.fetch_add(result.echoes, std::memory_order_relaxed);

  if (result.usable) {
    if (std::shared_ptr<const core::DetectorModel> model = registry_.current()) {
      core::StageClock clock(pipeline::StageId::kInference, result.timings,
                             &stage_graph_, "serve");
      result.diagnosis = model->predict(analysis.features);
      result.model_version = registry_.version();
    }
    result.features = std::move(analysis.features);
  }
  return result;
}

void ServingEngine::process_batch(std::span<Job> batch) {
  if (batch.size() > 1) {
    metrics_.batches.fetch_add(1, std::memory_order_relaxed);
    metrics_.batched_requests.fetch_add(batch.size(), std::memory_order_relaxed);
  }
  // One job at a time, each resolved before the next starts: a job's
  // admission (deadline shed, queue wait) happens when it starts, so its
  // queue_ms covers its wait behind batch-mates too (docs/serving.md).
  for (Job& job : batch) {
    obs::Span job_span("serve_job", "serve");
    double queue_ms = 0.0;
    const std::optional<CancelToken> cancel = admit_dequeued(job, queue_ms);
    if (!cancel) continue;
    ServeResult result;
    try {
      result = run_pipeline(job.request, *cancel);
    } catch (...) {
      result = error_result(job.request.id, std::current_exception());
    }
    finish_job(job, std::move(result), queue_ms);
  }
}

ServeResult ServingEngine::run_pipeline(const ServeRequest& request,
                                        const CancelToken& cancel) {
  // --- Ingest: a job that arrived as a whole recording streams into a fresh
  // session in `chunk_samples` slices, its deadline checked before every
  // chunk, and fails if the session's buffer refuses one. Resample plus
  // every feed is the job's one `filter` stage execution, as in
  // EarSonar::analyze. Pre-fed sessions (the networked path) skip this.
  core::StageTimings filter_timing;
  StreamingSession* session = request.session.get();
  std::unique_ptr<StreamingSession> own;
  if (session == nullptr) {
    core::StageClock clock(pipeline::StageId::kFilter, filter_timing, &stage_graph_,
                           "serve");
    own = std::make_unique<StreamingSession>(config_.session);
    session = own.get();
    std::span<const double> samples = request.recording.view();
    std::vector<double> resampled;
    const double rate = config_.session.pipeline.chirp.sample_rate;
    if (request.recording.sample_rate() != rate) {
      obs::Span resample_span("resample", "serve");
      resampled = dsp::resample_to_rate(samples, request.recording.sample_rate(), rate);
      samples = resampled;
    }
    session->reserve(samples.size());
    const std::size_t chunk = config_.chunk_samples;
    for (std::size_t pos = 0; pos < samples.size(); pos += chunk) {
      cancel.check("stream_ingest");
      // A refused chunk would leave a cut (or, past a later accepted one,
      // spliced) stream: the recording fails as a whole instead.
      if (session->feed(samples.subspan(pos, std::min(chunk, samples.size() - pos))) ==
          FeedStatus::kRejected) {
        metrics_.chunks_refused.fetch_add(1, std::memory_order_relaxed);
        std::ostringstream msg;
        msg << "recording of " << samples.size()
            << " samples exceeds the session buffer of "
            << config_.session.max_buffered_samples << " samples";
        fail(msg.str());
      }
      metrics_.chunks_fed.fetch_add(1, std::memory_order_relaxed);
    }
  }

  // --- Finish: the session's analysis through the engine's EarSonar.
  core::EchoAnalysis analysis = session->finish(pipeline_, cancel, &stage_graph_);
  analysis.timings[pipeline::StageId::kFilter] = filter_timing[pipeline::StageId::kFilter];
  return finalize_analysis(request.id, std::move(analysis));
}

std::string ServingEngine::metrics_snapshot() const {
  std::ostringstream out;
  out << "earsonar_serve_workers " << config_.workers << "\n";
  out << "earsonar_serve_queue_capacity " << config_.queue_capacity << "\n";
  out << "earsonar_serve_batch_max " << config_.batch_max << "\n";
  out << "earsonar_serve_batch_wait_us " << config_.batch_wait_us << "\n";
  out << "earsonar_serve_model_version " << registry_.version() << "\n";
  const obs::TraceRecorder& recorder = obs::TraceRecorder::instance();
  out << "earsonar_serve_trace_enabled " << (recorder.enabled() ? 1 : 0) << "\n";
  out << "earsonar_serve_trace_spans_total " << recorder.size() << "\n";
  out << metrics_.text_snapshot();
  out << stage_graph_.text_snapshot();
  return out.str();
}

}  // namespace earsonar::serve
