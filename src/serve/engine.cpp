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
  const std::size_t widx = workload_index(request.workload);
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
  metrics_.workload[widx].accepted.fetch_add(1, std::memory_order_relaxed);
  metrics_.queue_depth.fetch_add(1, std::memory_order_relaxed);
  submission.accepted = true;
  return submission;
}

std::uint64_t ServingEngine::install_wideband(
    std::shared_ptr<const core::WidebandScreener> model) {
  std::unique_lock lock(wideband_mutex_);
  wideband_ = std::move(model);
  return wideband_version_.fetch_add(1, std::memory_order_relaxed) + 1;
}

std::shared_ptr<const core::WidebandScreener> ServingEngine::wideband_model() const {
  std::shared_lock lock(wideband_mutex_);
  return wideband_;
}

void ServingEngine::worker_loop() {
  // One span per worker thread: its row in the trace viewer shows the
  // worker's occupancy between start() and stop().
  obs::Span worker_span("worker", "serve");
  Job job;
  while (queue_.pop(job)) {
    // The first pop leads a batch; linger up to batch_wait_us for stragglers
    // (or until the batch fills). A closed queue cuts the linger short, so
    // stop() still drains promptly. At batch_max 1 the job is a batch of one.
    std::vector<Job> batch;
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
    process_batch(std::move(batch));
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
    // the queue (or in a leader's batch-collect linger), so no pipeline work
    // is worth doing. Counted separately from failures — the engine did
    // nothing wrong, it was just too busy.
    ServeResult shed;
    shed.id = job.request.id;
    shed.deadline_exceeded = true;
    shed.error = "deadline_exceeded: shed at dequeue";
    shed.workload = job.request.workload;
    shed.queue_ms = queue_ms;
    shed.total_ms = ms_since(job.enqueued);
    metrics_.deadline_exceeded.fetch_add(1, std::memory_order_relaxed);
    metrics_.workload[workload_index(job.request.workload)]
        .deadline_exceeded.fetch_add(1, std::memory_order_relaxed);
    job.promise.set_value(std::move(shed));
    return std::nullopt;
  }
  return cancel;
}

void ServingEngine::finish_job(Job& job, ServeResult result, double queue_ms) {
  result.workload = job.request.workload;
  ServeMetrics::WorkloadCounters& per_type =
      metrics_.workload[workload_index(job.request.workload)];
  result.queue_ms = queue_ms;
  result.total_ms = ms_since(job.enqueued);
  metrics_.latency.total.record(result.total_ms);
  if (result.deadline_exceeded) {
    metrics_.deadline_exceeded.fetch_add(1, std::memory_order_relaxed);
    per_type.deadline_exceeded.fetch_add(1, std::memory_order_relaxed);
  } else if (!result.error.empty()) {
    metrics_.failed.fetch_add(1, std::memory_order_relaxed);
    per_type.failed.fetch_add(1, std::memory_order_relaxed);
  } else {
    metrics_.completed.fetch_add(1, std::memory_order_relaxed);
    per_type.completed.fetch_add(1, std::memory_order_relaxed);
    if (!result.usable) metrics_.no_echo.fetch_add(1, std::memory_order_relaxed);
    if (result.quality.degraded)
      metrics_.degraded.fetch_add(1, std::memory_order_relaxed);
  }
  job.promise.set_value(std::move(result));
}

ServeResult ServingEngine::process_absorbance(const ServeRequest& request) {
  ServeResult result;
  result.id = request.id;
  result.workload = WorkloadType::kAbsorbance;
  require(request.session == nullptr,
          "absorbance request must not carry a streaming session");
  if (request.absorbance.empty()) {
    // Mirrors an EarSonar recording with no segmentable echo: the request
    // completes, but there is nothing to classify.
    result.usable = false;
    return result;
  }
  result.usable = true;
  result.features = request.absorbance;  // what a remote caller verifies against
  if (std::shared_ptr<const core::WidebandScreener> model = wideband_model()) {
    core::StageClock clock(pipeline::StageId::kInference, result.timings,
                           &stage_graph_, "serve");
    result.diagnosis = model->classify(request.absorbance);
    result.model_version = wideband_version();
  }
  return result;
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

void ServingEngine::process_batch(std::vector<Job> batch) {
  // Shed-before-work: every job's deadline is re-checked here, after the
  // batch-collect linger, so a request that expired while the leader waited
  // for stragglers never reaches the pipeline (docs/serving.md).
  std::vector<Admitted> live;
  live.reserve(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    double queue_ms = 0.0;
    if (std::optional<CancelToken> cancel = admit_dequeued(batch[i], queue_ms))
      live.push_back({i, *cancel, queue_ms});
  }

  // Partition by workload type: a pipeline batch never mixes types
  // (docs/workloads.md). Absorbance jobs form their own type-pure group —
  // they have no waveform to ingest.
  std::vector<Admitted> earsonar;
  std::vector<Admitted> absorbance;
  for (const Admitted& a : live) {
    if (batch[a.job].request.workload == WorkloadType::kAbsorbance)
      absorbance.push_back(a);
    else
      earsonar.push_back(a);
  }
  if (absorbance.size() > 1) {
    ServeMetrics::WorkloadCounters& per_type =
        metrics_.workload[workload_index(WorkloadType::kAbsorbance)];
    per_type.batches.fetch_add(1, std::memory_order_relaxed);
    per_type.batched_requests.fetch_add(absorbance.size(), std::memory_order_relaxed);
  }
  for (const Admitted& a : absorbance) {
    Job& job = batch[a.job];
    ensure(job.request.workload == WorkloadType::kAbsorbance,
           "batch type purity violated: non-absorbance job in absorbance group");
    ServeResult result;
    try {
      result = process_absorbance(job.request);
    } catch (...) {
      result = error_result(job.request.id, std::current_exception());
    }
    finish_job(job, std::move(result), a.queue_ms);
  }
  if (!earsonar.empty()) run_pipeline(batch, earsonar);
}

void ServingEngine::run_pipeline(std::vector<Job>& batch,
                                 std::span<const Admitted> group) {
  obs::Span batch_span("serve_batch", "serve");
  batch_span.set_arg("requests", static_cast<std::int64_t>(group.size()));
  for (const Admitted& a : group)
    ensure(batch[a.job].request.workload == WorkloadType::kEarSonar,
           "batch type purity violated: non-EarSonar job in pipeline batch");
  if (group.size() > 1) {
    metrics_.batches.fetch_add(1, std::memory_order_relaxed);
    metrics_.batched_requests.fetch_add(group.size(), std::memory_order_relaxed);
    ServeMetrics::WorkloadCounters& per_type =
        metrics_.workload[workload_index(WorkloadType::kEarSonar)];
    per_type.batches.fetch_add(1, std::memory_order_relaxed);
    per_type.batched_requests.fetch_add(group.size(), std::memory_order_relaxed);
  }

  // --- Ingest, one job at a time: a job that arrived as a whole recording
  // streams into a fresh session in `chunk_samples` slices, its deadline
  // checked before every chunk; an error lands on that job alone. Resample
  // plus every feed is the job's one `filter` stage execution, as in
  // EarSonar::analyze. Pre-fed sessions (the networked path) skip this.
  struct Lane {
    StreamingSession* session = nullptr;
    std::unique_ptr<StreamingSession> own;  ///< engine-built session
    core::StageTimings timings;             ///< the `filter` slot
    std::exception_ptr error;
  };
  std::vector<Lane> lanes(group.size());
  const double rate = config_.session.pipeline.chirp.sample_rate;
  for (std::size_t j = 0; j < group.size(); ++j) {
    Lane& lane = lanes[j];
    const ServeRequest& request = batch[group[j].job].request;
    if (request.session != nullptr) {
      lane.session = request.session.get();  // fed by the connection thread
      continue;
    }
    try {
      core::StageClock clock(pipeline::StageId::kFilter, lane.timings, &stage_graph_,
                             "serve");
      lane.own = std::make_unique<StreamingSession>(config_.session);
      lane.session = lane.own.get();
      std::span<const double> samples = request.recording.view();
      std::vector<double> resampled;
      if (request.recording.sample_rate() != rate) {
        obs::Span resample_span("resample", "serve");
        resampled =
            dsp::resample_to_rate(samples, request.recording.sample_rate(), rate);
        samples = resampled;
      }
      const std::size_t chunk =
          request.chunk_samples > 0 ? request.chunk_samples : config_.chunk_samples;
      for (std::size_t pos = 0; pos < samples.size(); pos += chunk) {
        group[j].cancel.check("stream_ingest");
        (void)lane.session->feed(
            samples.subspan(pos, std::min(chunk, samples.size() - pos)));
        metrics_.chunks_fed.fetch_add(1, std::memory_order_relaxed);
      }
    } catch (...) {
      lane.error = std::current_exception();
    }
  }

  // --- Finish: one pass over every surviving session; the echo-PSD stage
  // packs all requests' chirp windows into shared x4 lanes.
  std::vector<StreamingSession*> finish_sessions;
  std::vector<CancelToken> finish_cancels;
  std::vector<std::size_t> finish_lanes;
  for (std::size_t j = 0; j < group.size(); ++j) {
    if (lanes[j].error) continue;
    finish_sessions.push_back(lanes[j].session);
    finish_cancels.push_back(group[j].cancel);
    finish_lanes.push_back(j);
  }
  std::vector<core::AnalysisOutcome> outcomes = StreamingSession::finish(
      pipeline_, finish_sessions, finish_cancels, &stage_graph_);
  std::vector<core::AnalysisOutcome*> outcome_of(group.size(), nullptr);
  for (std::size_t r = 0; r < finish_lanes.size(); ++r) {
    Lane& lane = lanes[finish_lanes[r]];
    if (!outcomes[r].ok()) {
      lane.error = outcomes[r].error;
      continue;
    }
    outcome_of[finish_lanes[r]] = &outcomes[r];
    outcomes[r].analysis.timings[pipeline::StageId::kFilter] =
        lane.timings[pipeline::StageId::kFilter];
  }

  for (std::size_t j = 0; j < group.size(); ++j) {
    Job& job = batch[group[j].job];
    ServeResult result =
        outcome_of[j]
            ? finalize_analysis(job.request.id, std::move(outcome_of[j]->analysis))
            : error_result(job.request.id, lanes[j].error);
    finish_job(job, std::move(result), group[j].queue_ms);
  }
}

std::string ServingEngine::metrics_snapshot() const {
  std::ostringstream out;
  out << "earsonar_serve_workers " << config_.workers << "\n";
  out << "earsonar_serve_queue_capacity " << config_.queue_capacity << "\n";
  out << "earsonar_serve_batch_max " << config_.batch_max << "\n";
  out << "earsonar_serve_batch_wait_us " << config_.batch_wait_us << "\n";
  out << "earsonar_serve_model_version " << registry_.version() << "\n";
  out << "earsonar_serve_wideband_model_version " << wideband_version() << "\n";
  const obs::TraceRecorder& recorder = obs::TraceRecorder::instance();
  out << "earsonar_serve_trace_enabled " << (recorder.enabled() ? 1 : 0) << "\n";
  out << "earsonar_serve_trace_spans_total " << recorder.size() << "\n";
  out << metrics_.text_snapshot();
  out << stage_graph_.text_snapshot();
  return out.str();
}

}  // namespace earsonar::serve
