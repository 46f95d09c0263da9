// The three traffic shapes. Each drives the serving stack through its public
// API and times every call from here (obs::Span around the call, so the same
// clock also lands in the trace when the recorder is on).
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <exception>
#include <future>
#include <stdexcept>
#include <thread>

#include "net/client.hpp"
#include "net/frame.hpp"
#include "net/server.hpp"
#include "net/socket.hpp"
#include "obs/trace.hpp"
#include "perfbench.hpp"
#include "serve/engine.hpp"

namespace perfbench {

using namespace earsonar;

namespace {

const char* const kHost = "127.0.0.1";

/// upload: whole recordings in 100 ms Chunk frames (2 frames per recording).
constexpr std::size_t kUploadConnections = 2;
constexpr std::size_t kUploadChunk = 4800;

/// live: 10 ms Chunk frames on an absolute schedule. Each connection starts a
/// session every 200 ms and the connections are 52.5 ms apart, so Finish
/// frames reach the single worker at least 42.5 ms apart and never queue
/// behind one another: 4 x 5 = 20 sessions/s. The extra 2.5 ms puts each
/// connection's chunks 2.5 ms from the others' on the 10 ms grid, so a
/// Finish never races another connection's chunk for the CPU.
constexpr std::size_t kLiveConnections = 4;
constexpr std::size_t kLiveChunk = 480;
constexpr auto kLiveChunkPeriod = std::chrono::milliseconds(10);
constexpr auto kLiveSessionPeriod = std::chrono::milliseconds(200);
constexpr auto kLiveConnectionOffset = std::chrono::microseconds(52500);

/// clinic_backlog: closed-loop bursts of exactly one full batch.
constexpr std::size_t kBurst = 16;

double process_cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

/// The engine counters a phase reports, as absolute values.
Phase read_counters(const serve::ServeMetrics& metrics, const pipeline::StageGraph& graph) {
  Phase c;
  c.chunks_fed = metrics.chunks_fed.load();
  c.batches = metrics.batches.load();
  c.batched_requests = metrics.batched_requests.load();
  c.server_completed = metrics.completed.load();
  for (std::size_t s = 0; s < pipeline::kStageCount; ++s) {
    const pipeline::StageStats& stats = graph.stats(static_cast<pipeline::StageId>(s));
    c.stage_items[s] = stats.items.load();
    c.stage_passes[s] = stats.passes.load();
    c.stage_busy_us[s] = stats.busy_us.load();
  }
  return c;
}

/// Opens a phase; close() returns wall time, CPU time and counter deltas.
class PhaseClock {
 public:
  PhaseClock(const serve::ServeMetrics& metrics, const pipeline::StageGraph& graph)
      : metrics_(metrics),
        graph_(graph),
        before_(read_counters(metrics, graph)),
        cpu0_(process_cpu_s()),
        t0_(Clock::now()) {}

  [[nodiscard]] Clock::time_point started() const { return t0_; }

  /// Closes the phase at `end` (the last observed completion).
  Phase close(Clock::time_point end) const {
    Phase phase = read_counters(metrics_, graph_);
    phase.wall_s = std::chrono::duration<double>(end - t0_).count();
    phase.cpu_s = process_cpu_s() - cpu0_;
    phase.chunks_fed -= before_.chunks_fed;
    phase.batches -= before_.batches;
    phase.batched_requests -= before_.batched_requests;
    phase.server_completed -= before_.server_completed;
    for (std::size_t s = 0; s < pipeline::kStageCount; ++s) {
      phase.stage_items[s] -= before_.stage_items[s];
      phase.stage_passes[s] -= before_.stage_passes[s];
      phase.stage_busy_us[s] -= before_.stage_busy_us[s];
    }
    return phase;
  }

 private:
  const serve::ServeMetrics& metrics_;
  const pipeline::StageGraph& graph_;
  Phase before_;
  double cpu0_;
  Clock::time_point t0_;
};

bool keep_features(std::size_t recording, bool all) {
  return all || recording < kSpotChecks;
}

Outcome from_result(net::ResultPayload result, bool keep) {
  Outcome out;
  out.kind = Outcome::Kind::kResult;
  out.queue_ms = result.queue_ms;
  out.total_ms = result.total_ms;
  out.has_diagnosis = result.has_diagnosis;
  out.state = result.state;
  out.events = result.events;
  out.echoes = result.echoes;
  if (keep) out.features = std::move(result.features);
  return out;
}

void rethrow_first(std::vector<std::exception_ptr>& errors) {
  for (std::exception_ptr& error : errors)
    if (error) std::rethrow_exception(error);
}

/// Outcomes of all client threads, ordered by session id (deterministic
/// order for the correctness checks).
std::vector<Outcome> merge(std::vector<std::vector<Outcome>>& per_thread) {
  std::vector<Outcome> all;
  for (auto& part : per_thread)
    for (Outcome& outcome : part) all.push_back(std::move(outcome));
  std::sort(all.begin(), all.end(), [](const Outcome& a, const Outcome& b) {
    return a.session_id < b.session_id;
  });
  return all;
}

// ------------------------------------------------------------ TCP server

/// NetServer with one shard and one worker, unbatched — shared by upload
/// and live, which differ only in how clients stream.
class NetWorkload : public Workload {
 public:
  explicit NetWorkload(const Population& population) : population_(population) {}

  void start(const core::DetectorModel& model) override {
    net::NetServerConfig config;
    config.host = kHost;
    config.shards.shards = 1;
    config.shards.engine.workers = 1;
    config.shards.engine.batch_max = 1;
    config.shards.engine.session.pipeline = serving_pipeline();
    server_ = std::make_unique<net::NetServer>(config);
    server_->shards().install_model(model, "perfbench");
    server_->start();
    engine_ = server_->shards().engine(0);
  }

  void stop() override {
    if (server_) server_->stop();
  }

 protected:
  const Population& population_;
  std::unique_ptr<net::NetServer> server_;
  std::shared_ptr<serve::ServingEngine> engine_;
};

Outcome from_session(net::SessionOutcome session, bool keep) {
  Outcome out;
  switch (session.kind) {
    case net::SessionOutcome::Kind::kResult:
      return from_result(std::move(session.result), keep);
    case net::SessionOutcome::Kind::kRejected:
      out.kind = Outcome::Kind::kRejected;
      break;
    case net::SessionOutcome::Kind::kError:
      out.kind = Outcome::Kind::kError;
      break;
    case net::SessionOutcome::Kind::kTransport:
      out.kind = Outcome::Kind::kTransport;
      break;
  }
  return out;
}

class UploadWorkload final : public NetWorkload {
 public:
  using NetWorkload::NetWorkload;

  [[nodiscard]] std::size_t chunk_samples() const override { return kUploadChunk; }

  void warm_up() override {
    net::NetClient client(kHost, server_->port());
    net::SessionOptions options;
    options.chunk_samples = kUploadChunk;
    const net::SessionOutcome outcome =
        client.run_session(population_.enroll.front(), options);
    if (outcome.kind != net::SessionOutcome::Kind::kResult)
      throw std::runtime_error("upload warm-up session failed: " + outcome.message);
  }

  Phase run(double seconds, bool traced) override {
    PhaseClock clock(engine_->metrics(), engine_->stage_graph());
    const auto deadline =
        clock.started() + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(seconds));
    std::vector<std::vector<Outcome>> per_thread(kUploadConnections);
    std::vector<std::exception_ptr> errors(kUploadConnections);
    std::vector<Clock::time_point> last(kUploadConnections, clock.started());
    std::vector<std::size_t> attempted(kUploadConnections, 0);
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < kUploadConnections; ++c) {
      threads.emplace_back([&, c] {
        try {
          net::NetClient client(kHost, server_->port());
          while (Clock::now() < deadline) {
            ++attempted[c];
            const std::size_t k = next_.fetch_add(1);
            const std::size_t rec = k % population_.served.size();
            net::SessionOptions options;
            options.session_id = k + 1;
            options.chunk_samples = kUploadChunk;
            obs::Span span("bench.run_session", "bench");
            net::SessionOutcome session =
                client.run_session(population_.served[rec], options);
            span.end();
            last[c] = Clock::now();
            Outcome outcome = from_session(std::move(session), keep_features(rec, traced));
            outcome.recording = rec;
            outcome.session_id = k + 1;
            outcome.latency_ms = span.elapsed_ms();
            per_thread[c].push_back(std::move(outcome));
          }
        } catch (...) {
          errors[c] = std::current_exception();
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
    rethrow_first(errors);
    Phase phase = clock.close(*std::max_element(last.begin(), last.end()));
    phase.outcomes = merge(per_thread);
    for (std::size_t n : attempted) phase.attempted += n;
    return phase;
  }

 private:
  std::atomic<std::size_t> next_{0};  ///< served-recording cycle, across phases
};

/// One live session on a raw connection: Hello, then each 10 ms chunk as soon
/// as its audio would have been captured, then Finish with the last chunk.
/// Latency runs from the instant the last chunk left to the Result; how late
/// the generator woke against its schedule is kept apart in pacing_late_ms.
Outcome stream_live_session(net::TcpStream& stream, std::vector<double>& arena,
                            const audio::Waveform& recording, std::uint64_t sid,
                            Clock::time_point start, bool keep,
                            std::vector<double>& pacing_late_ms) {
  Outcome out;
  out.session_id = sid;
  // Reads until a frame of this session; returns it, or nullopt after
  // filling `out` with a terminal non-Result outcome.
  const auto read_session_frame = [&]() -> std::optional<net::FrameHeader> {
    for (;;) {
      const net::ReadFrameResult read = net::read_frame(stream, arena);
      if (read.kind != net::ReadFrameResult::Kind::kFrame) {
        out.kind = Outcome::Kind::kTransport;
        return std::nullopt;
      }
      if (read.header.session_id != sid) continue;
      if (read.header.type == net::FrameType::kReject) {
        out.kind = Outcome::Kind::kRejected;
        return std::nullopt;
      }
      if (read.header.type == net::FrameType::kError) {
        out.kind = Outcome::Kind::kError;
        return std::nullopt;
      }
      return read.header;
    }
  };

  try {
    net::HelloPayload hello;
    hello.sample_rate = recording.sample_rate();
    {
      obs::Span span("bench.hello", "bench");
      net::write_frame(stream, net::FrameType::kHello, sid, net::encode_hello(hello));
      const std::optional<net::FrameHeader> ack = read_session_frame();
      if (!ack) return out;
      if (ack->type != net::FrameType::kHelloAck) {
        out.kind = Outcome::Kind::kTransport;
        return out;
      }
    }
    const std::span<const double> samples = recording.view();
    const std::size_t chunks = (samples.size() + kLiveChunk - 1) / kLiveChunk;
    Clock::time_point sent = start;
    for (std::size_t i = 0; i < chunks; ++i) {
      const Clock::time_point due = start + (i + 1) * kLiveChunkPeriod;
      std::this_thread::sleep_until(due);
      sent = Clock::now();
      pacing_late_ms.push_back(ms_between(due, sent));
      const std::size_t pos = i * kLiveChunk;
      obs::Span span("bench.chunk", "bench");
      net::write_chunk_frame(stream, sid,
                             samples.subspan(pos, std::min(kLiveChunk, samples.size() - pos)));
    }
    obs::Span span("bench.finish", "bench");
    net::write_frame(stream, net::FrameType::kFinish, sid, {});
    const std::optional<net::FrameHeader> header = read_session_frame();
    if (!header) return out;
    std::optional<net::ResultPayload> result =
        header->type == net::FrameType::kResult
            ? net::decode_result(net::payload_bytes(arena, *header))
            : std::nullopt;
    const Clock::time_point received = Clock::now();
    span.end();
    if (!result) {
      out.kind = Outcome::Kind::kTransport;
      return out;
    }
    out = from_result(std::move(*result), keep);
    out.session_id = sid;
    out.latency_ms = ms_between(sent, received);
  } catch (const std::exception&) {
    out.kind = Outcome::Kind::kTransport;
  }
  return out;
}

class LiveWorkload final : public NetWorkload {
 public:
  using NetWorkload::NetWorkload;

  [[nodiscard]] std::size_t chunk_samples() const override { return kLiveChunk; }
  /// About 150 sessions per repetition at 20 sessions/s.
  [[nodiscard]] double repetition_s() const override { return 7.5; }

  void warm_up() override {
    net::TcpStream stream = net::TcpStream::connect(kHost, server_->port());
    std::vector<double> arena;
    std::vector<double> late;
    // Scheduled in the past, so every frame is due at once: the warm-up
    // exercises the live path without sleeping through a recording.
    const Outcome outcome =
        stream_live_session(stream, arena, population_.enroll.front(), 1,
                            Clock::now() - std::chrono::seconds(1), false, late);
    if (outcome.kind != Outcome::Kind::kResult)
      throw std::runtime_error("live warm-up session failed");
  }

  Phase run(double seconds, bool traced) override {
    PhaseClock clock(engine_->metrics(), engine_->stage_graph());
    const std::size_t per_connection = std::max<std::size_t>(
        1, static_cast<std::size_t>(seconds * 1000.0 /
                                    static_cast<double>(kLiveSessionPeriod.count())));
    // Connect everything first; the schedule starts once all are ready.
    std::vector<net::TcpStream> streams;
    for (std::size_t c = 0; c < kLiveConnections; ++c)
      streams.push_back(net::TcpStream::connect(kHost, server_->port()));
    const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(20);

    std::vector<std::vector<Outcome>> per_thread(kLiveConnections);
    std::vector<std::vector<double>> late(kLiveConnections);
    std::vector<Clock::time_point> last(kLiveConnections, t0);
    std::vector<std::size_t> attempted(kLiveConnections, 0);
    std::vector<std::exception_ptr> errors(kLiveConnections);
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < kLiveConnections; ++c) {
      threads.emplace_back([&, c] {
        try {
          std::vector<double> arena;
          for (std::size_t j = 0; j < per_connection; ++j) {
            const std::size_t k = next_ + j * kLiveConnections + c;
            const std::size_t rec = k % population_.served.size();
            const Clock::time_point start =
                t0 + c * kLiveConnectionOffset + j * kLiveSessionPeriod;
            std::this_thread::sleep_until(start);
            ++attempted[c];
            Outcome outcome =
                stream_live_session(streams[c], arena, population_.served[rec], k + 1,
                                    start, keep_features(rec, traced), late[c]);
            last[c] = Clock::now();
            outcome.recording = rec;
            per_thread[c].push_back(std::move(outcome));
          }
        } catch (...) {
          errors[c] = std::current_exception();
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
    rethrow_first(errors);
    Phase phase = clock.close(*std::max_element(last.begin(), last.end()));
    phase.outcomes = merge(per_thread);
    for (const auto& part : late)
      phase.pacing_late_ms.insert(phase.pacing_late_ms.end(), part.begin(), part.end());
    for (std::size_t n : attempted) phase.attempted += n;
    next_ += per_connection * kLiveConnections;
    return phase;
  }

 private:
  std::size_t next_ = 0;  ///< served-recording cycle, across phases
};

// ------------------------------------------------- in-process batch engine

class ClinicWorkload final : public Workload {
 public:
  explicit ClinicWorkload(const Population& population) : population_(population) {}

  [[nodiscard]] std::size_t chunk_samples() const override { return 0; }

  void start(const core::DetectorModel& model) override {
    serve::EngineConfig config;
    config.workers = 1;
    config.batch_max = kBurst;
    config.batch_wait_us = 2000;
    config.queue_capacity = 4 * kBurst;
    // Whole-recording chunks: one shared filter pass per batch.
    for (const audio::Waveform& rec : population_.served)
      config.chunk_samples = std::max(config.chunk_samples, rec.size());
    config.session.pipeline = serving_pipeline();
    engine_ = std::make_unique<serve::ServingEngine>(config);
    engine_->registry().install(model, "perfbench");
    engine_->start();
  }

  void stop() override {
    if (engine_) engine_->stop();
  }

  void warm_up() override {
    std::vector<std::size_t> indices(kBurst);
    for (std::size_t i = 0; i < kBurst; ++i) indices[i] = i;
    for (const Outcome& outcome : burst(population_.enroll, indices, 0, false))
      if (outcome.kind != Outcome::Kind::kResult)
        throw std::runtime_error("clinic_backlog warm-up burst failed");
  }

  Phase run(double seconds, bool traced) override {
    PhaseClock clock(engine_->metrics(), engine_->stage_graph());
    const auto deadline =
        clock.started() + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(seconds));
    std::vector<Outcome> outcomes;
    std::vector<std::size_t> indices(kBurst);
    std::size_t attempted = 0;
    Clock::time_point last = clock.started();
    while (Clock::now() < deadline) {
      attempted += kBurst;
      for (std::size_t i = 0; i < kBurst; ++i)
        indices[i] = (next_ + i) % population_.served.size();
      for (Outcome& outcome : burst(population_.served, indices, next_, traced))
        outcomes.push_back(std::move(outcome));
      next_ += kBurst;
      last = Clock::now();
    }
    Phase phase = clock.close(last);
    phase.outcomes = std::move(outcomes);
    phase.attempted = attempted;
    return phase;
  }

 private:
  /// Submits one full batch back to back, then waits on every future.
  /// Latency runs from each submit() call to its future becoming ready.
  std::vector<Outcome> burst(const std::vector<audio::Waveform>& recordings,
                             const std::vector<std::size_t>& indices,
                             std::size_t first_id, bool keep_all) {
    // Requests are built before the first submit so the burst reaches the
    // queue well inside the worker's batch linger.
    std::vector<serve::ServeRequest> requests(indices.size());
    for (std::size_t i = 0; i < indices.size(); ++i) {
      requests[i].id = std::to_string(first_id + i + 1);
      requests[i].recording = recordings[indices[i]];
    }
    std::vector<Outcome> outcomes(indices.size());
    std::vector<Clock::time_point> submitted(indices.size());
    std::vector<std::future<serve::ServeResult>> futures(indices.size());
    for (std::size_t i = 0; i < indices.size(); ++i) {
      outcomes[i].recording = indices[i];
      outcomes[i].session_id = first_id + i + 1;
      obs::Span span("bench.submit", "bench");
      submitted[i] = Clock::now();
      serve::Submission submission = engine_->submit(std::move(requests[i]));
      if (submission.accepted)
        futures[i] = std::move(submission.result);
      else
        outcomes[i].kind = Outcome::Kind::kRejected;
    }
    obs::Span wait_span("bench.burst_wait", "bench");
    for (std::size_t i = 0; i < indices.size(); ++i) {
      if (!futures[i].valid()) continue;
      serve::ServeResult result = futures[i].get();
      Outcome& out = outcomes[i];
      out.latency_ms = ms_between(submitted[i], Clock::now());
      out.queue_ms = result.queue_ms;
      out.total_ms = result.total_ms;
      if (!result.error.empty() || result.deadline_exceeded) {
        out.kind = Outcome::Kind::kError;
        continue;
      }
      out.kind = Outcome::Kind::kResult;
      out.has_diagnosis = result.diagnosis.has_value();
      if (result.diagnosis) out.state = result.diagnosis->state;
      out.events = static_cast<std::uint32_t>(result.events);
      out.echoes = static_cast<std::uint32_t>(result.echoes);
      if (keep_features(indices[i], keep_all)) out.features = std::move(result.features);
    }
    return outcomes;
  }

  const Population& population_;
  std::unique_ptr<serve::ServingEngine> engine_;
  std::size_t next_ = 0;  ///< served-recording cycle, across phases
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const Population& population) {
  if (name == "upload") return std::make_unique<UploadWorkload>(population);
  if (name == "live") return std::make_unique<LiveWorkload>(population);
  if (name == "clinic_backlog") return std::make_unique<ClinicWorkload>(population);
  return nullptr;
}

double codec_us(const audio::Waveform& recording, std::size_t chunk,
                const Outcome& outcome, std::size_t feature_dimension) {
  const std::uint64_t sid = outcome.session_id;
  net::FrameDecoder decoder;
  std::size_t decoded = 0;
  const auto round_trip = [&](net::FrameType type, std::span<const std::uint8_t> payload) {
    decoder.push(net::encode_frame(type, sid, payload));
    if (std::optional<net::Frame> frame = decoder.next()) {
      decoded += frame->payload.size();
      return *frame;
    }
    throw std::runtime_error("codec replay: frame did not decode");
  };
  net::ResultPayload result;
  result.usable = outcome.echoes > 0;
  result.has_diagnosis = outcome.has_diagnosis;
  result.state = static_cast<std::uint8_t>(outcome.state);
  result.events = outcome.events;
  result.echoes = outcome.echoes;
  result.queue_ms = outcome.queue_ms;
  result.total_ms = outcome.total_ms;
  result.features = outcome.features;
  if (result.features.empty() && result.usable) result.features.assign(feature_dimension, 0.0);

  const Clock::time_point t0 = Clock::now();
  net::HelloPayload hello;
  hello.sample_rate = recording.sample_rate();
  (void)net::decode_hello(round_trip(net::FrameType::kHello, net::encode_hello(hello)).payload);
  net::HelloAckPayload ack;
  ack.sample_rate = recording.sample_rate();
  (void)net::decode_hello_ack(
      round_trip(net::FrameType::kHelloAck, net::encode_hello_ack(ack)).payload);
  const std::span<const double> samples = recording.view();
  for (std::size_t pos = 0; pos < samples.size(); pos += chunk) {
    const std::size_t len = std::min(chunk, samples.size() - pos);
    (void)round_trip(net::FrameType::kChunk,
                     {reinterpret_cast<const std::uint8_t*>(samples.data() + pos),
                      len * sizeof(double)});
  }
  (void)round_trip(net::FrameType::kFinish, {});
  (void)net::decode_result(round_trip(net::FrameType::kResult, net::encode_result(result)).payload);
  const double us = std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
  if (decoded == 0) throw std::runtime_error("codec replay decoded nothing");
  return us;
}

}  // namespace perfbench
