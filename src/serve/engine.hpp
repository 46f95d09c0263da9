// Concurrent serving engine: many recordings, many devices, one process.
//
// Architecture (see DESIGN.md §"Serving architecture"):
//
//   submit() ──try_push──▶ BoundedQueue ──pop──▶ worker_loop × N ──▶ promise
//                 │                                   │
//            reject with                  one job at a time: chunked
//            reason when full             StreamingSession ingest, finish
//                                         through the engine's EarSonar,
//                                         predict against ModelRegistry
//
// Backpressure is explicit: a full queue rejects the submission immediately
// with a reason (never blocks the caller, never drops accepted work), so an
// upstream load balancer can retry elsewhere. The engine owns its workers:
// start() spawns `workers` threads and stop() joins them, so engines never
// contend for the repo-wide `common/parallel` pool (N shard engines drain
// their queues concurrently, and EarSonar::fit can run beside a serving
// engine).
//
// A worker pops a job and collects up to `batch_max - 1` more; then
// process_batch() runs them one after the other. Each job is admitted when
// it starts, feeds its recording through its own StreamingSession in
// `chunk_samples` slices, finishes it, and has its promise resolved before
// the next job starts. At batch_max 1 a job is a batch of one. The engine
// never paces a job: a live device's chunks arrive on the networked
// front-end's connection thread, which feeds the session and submits only
// the finish.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "audio/waveform.hpp"
#include "core/detector.hpp"
#include "core/pipeline.hpp"
#include "pipeline/stage_graph.hpp"
#include "serve/metrics.hpp"
#include "serve/queue.hpp"
#include "serve/registry.hpp"
#include "serve/streaming.hpp"

namespace earsonar::serve {

struct EngineConfig {
  std::size_t workers = 2;          ///< worker threads the engine owns
  std::size_t queue_capacity = 64;  ///< pending requests before rejection
  std::size_t chunk_samples = 480;  ///< ingestion slice (10 ms @ 48 kHz)
  StreamingConfig session;          ///< per-request streaming configuration
  /// Dequeue unit: how many queued jobs a worker takes per wake-up. A worker
  /// that pops a job keeps collecting up to this many (lingering at most
  /// batch_wait_us for stragglers), then runs them one at a time, each
  /// resolved before the next starts. At 1 nothing lingers. Results are
  /// bit-identical at every size; see docs/serving.md "Dequeue semantics".
  std::size_t batch_max = 1;
  /// Microseconds a batch-leading worker lingers for more jobs after its
  /// first pop. 0 still takes whatever is already queued. Bounded by the
  /// request deadline rule: a job whose deadline expires during the linger
  /// or behind its batch-mates is shed when it starts, before any pipeline
  /// work.
  std::size_t batch_wait_us = 200;

  void validate() const;
};

struct ServeRequest {
  std::string id;                 ///< caller's tag, echoed in the result
  audio::Waveform recording;      ///< any sample rate; resampled like analyze()
  /// Request deadline in milliseconds from submit() (0 = none). An expired
  /// request is shed at dequeue — before any pipeline work — and a request
  /// that expires mid-pipeline is cancelled at the next stage boundary;
  /// either way the result carries deadline_exceeded = true and the request
  /// counts toward `requests_deadline_exceeded_total`, not `failed`.
  double timeout_ms = 0.0;
  /// Alternative payload: a StreamingSession someone else already fed (the
  /// networked front-end streams chunks into the session on the connection
  /// thread as they arrive, then submits only the finalization). When set,
  /// `recording` is ignored and the worker only finishes the session and
  /// runs inference. The session must have been built with this engine's
  /// session config.
  std::unique_ptr<StreamingSession> session = nullptr;
};

struct ServeResult {
  std::string id;
  bool usable = false;  ///< an echo was segmented and features extracted
  std::optional<core::Diagnosis> diagnosis;  ///< set when usable and a model is loaded
  std::size_t events = 0;
  std::size_t echoes = 0;
  core::StageTimings timings;   ///< per-stage pipeline latency
  core::AnalysisQuality quality;  ///< per-chirp degradation report
  /// The 105-dim feature vector when usable (what a remote caller needs to
  /// verify a networked answer bit-for-bit against the in-process pipeline).
  std::vector<double> features;
  double queue_ms = 0.0;        ///< time spent waiting in the queue
  double total_ms = 0.0;        ///< queue wait + processing
  std::uint64_t model_version = 0;
  bool deadline_exceeded = false;  ///< shed at dequeue or cancelled mid-pipeline
  std::string error;            ///< non-empty when processing threw
};

/// Outcome of submit(): either a future for the result, or a rejection with
/// the reason (queue full / engine stopped).
struct Submission {
  bool accepted = false;
  std::string reason;
  std::future<ServeResult> result;
};

class ServingEngine {
 public:
  explicit ServingEngine(EngineConfig config = {});
  ~ServingEngine();

  ServingEngine(const ServingEngine&) = delete;
  ServingEngine& operator=(const ServingEngine&) = delete;

  /// Starts `workers` worker threads draining the queue. Idempotent while
  /// running.
  void start();

  /// Closes the queue, drains every accepted request, and joins the
  /// workers. Safe to call repeatedly; the destructor calls it.
  void stop();

  [[nodiscard]] bool running() const { return running_.load(); }

  /// Never blocks: accepted requests get a future, a full queue or stopped
  /// engine gets a reason. Accepted requests are always completed (their
  /// future becomes ready) even when stop() races the submission.
  Submission submit(ServeRequest request);

  /// The hot-swappable model store shared by all workers.
  [[nodiscard]] ModelRegistry& registry() { return registry_; }

  [[nodiscard]] const ServeMetrics& metrics() const { return metrics_; }
  /// Mutable access for collaborators that feed engine counters from outside
  /// the request path (e.g. the CLI's model reloader incrementing
  /// `model_reload_retries`).
  [[nodiscard]] ServeMetrics& metrics() { return metrics_; }
  [[nodiscard]] std::size_t queue_depth() const { return queue_.size(); }
  [[nodiscard]] const EngineConfig& config() const { return config_; }

  /// metrics().text_snapshot() plus engine-level gauges (queue capacity,
  /// worker count, dequeue knobs, model version/source) and the per-stage
  /// occupancy counters of the stage graph.
  [[nodiscard]] std::string metrics_snapshot() const;

  /// Per-stage occupancy of every job (see pipeline::StageGraph).
  [[nodiscard]] const pipeline::StageGraph& stage_graph() const {
    return stage_graph_;
  }

 private:
  struct Job {
    ServeRequest request;
    std::promise<ServeResult> promise;
    std::chrono::steady_clock::time_point enqueued;
    /// Absolute deadline, fixed at submit() from request.timeout_ms.
    std::optional<std::chrono::steady_clock::time_point> deadline;
  };

  void worker_loop();
  /// Dequeue-side bookkeeping: records queue wait, sheds the job (promise
  /// satisfied, nullopt returned) when its deadline already expired, else
  /// hands back the request's cancel token.
  [[nodiscard]] std::optional<CancelToken> admit_dequeued(Job& job,
                                                          double& queue_ms);
  /// One collected batch, one job at a time: admit the job (or shed it),
  /// run its pipeline, and resolve its promise before the next job starts.
  void process_batch(std::span<Job> batch);
  /// The EarSonar pipeline for one admitted request: chunked ingest, the
  /// session's finish, inference.
  [[nodiscard]] ServeResult run_pipeline(const ServeRequest& request,
                                         const CancelToken& cancel);
  /// Result assembly from one analysis, per-stage throughput counters, and
  /// inference.
  [[nodiscard]] ServeResult finalize_analysis(const std::string& id,
                                              core::EchoAnalysis analysis);
  /// Total/outcome metrics + promise completion for one job.
  void finish_job(Job& job, ServeResult result, double queue_ms);

  EngineConfig config_;
  core::EarSonar pipeline_;  ///< finishes every job's session
  ModelRegistry registry_;
  ServeMetrics metrics_;
  pipeline::StageGraph stage_graph_;
  BoundedQueue<Job> queue_;
  std::vector<std::thread> workers_;
  std::atomic<bool> running_{false};
};

}  // namespace earsonar::serve
