#include "net/server.hpp"

#include <sstream>
#include <unordered_map>
#include <utility>

#include "common/error.hpp"
#include "common/log.hpp"

namespace earsonar::net {

namespace {
/// How long one accept round waits before the loop rechecks running_.
constexpr int kAcceptPollMs = 50;
}  // namespace

void NetServerConfig::validate() const {
  require(max_connections >= 1, "NetServerConfig: max_connections must be >= 1");
  require(default_deadline_ms >= 0.0,
          "NetServerConfig: default_deadline_ms must be >= 0");
  shards.validate();
}

NetServer::NetServer(NetServerConfig config)
    : config_(std::move(config)), pool_(config_.shards) {
  config_.validate();
}

NetServer::~NetServer() { stop(); }

void NetServer::start() {
  if (running_.exchange(true)) return;
  listener_ = TcpListener::bind(config_.host, config_.port);
  pool_.start();
  accept_thread_ = std::thread([this] { accept_loop(); });
  log_info("net: serving on ", config_.host, ":", listener_.port(), " (",
           pool_.shard_count(), " shard(s))");
}

void NetServer::stop() {
  if (!running_.exchange(false)) return;
  listener_.close();
  if (accept_thread_.joinable()) accept_thread_.join();
  {
    // Unblock every connection's read; the threads observe the dead socket
    // (or running_ == false) and wind down.
    std::lock_guard<std::mutex> lock(connections_mutex_);
    for (auto& connection : connections_) connection->stream.shutdown_both();
  }
  for (auto& connection : connections_)
    if (connection->thread.joinable()) connection->thread.join();
  connections_.clear();
  // After the connections: any finalization they submitted has its future
  // resolved by the drain inside ServingEngine::stop().
  pool_.stop();
}

void NetServer::reap_finished() {
  // Accept-thread only (connection threads never touch each other's entries),
  // so the thread members are safe to read here without the lock; the list
  // itself is mutated under it.
  std::lock_guard<std::mutex> lock(connections_mutex_);
  for (auto it = connections_.begin(); it != connections_.end();) {
    Connection& connection = **it;
    if (connection.done.load() && connection.thread.joinable()) {
      connection.thread.join();
      it = connections_.erase(it);
    } else {
      ++it;
    }
  }
}

void NetServer::accept_loop() {
  while (running_.load()) {
    reap_finished();
    std::optional<TcpStream> stream = listener_.accept(kAcceptPollMs);
    if (!stream) continue;  // timeout, transient failure, or injected fault
    if (stats_.connections_active.load(std::memory_order_relaxed) >=
        static_cast<std::int64_t>(config_.max_connections)) {
      // Layer-1 admission: explicit refusal before any session can open.
      stats_.connections_rejected.fetch_add(1, std::memory_order_relaxed);
      try {
        write_frame(*stream, FrameType::kReject, 0,
                    encode_status(static_cast<std::uint16_t>(
                                      RejectCode::kTooManyConnections),
                                  to_string(RejectCode::kTooManyConnections)));
      } catch (const std::exception&) {
        // The refused peer vanished first; nothing to report to.
      }
      continue;
    }
    stats_.connections_accepted.fetch_add(1, std::memory_order_relaxed);
    stats_.connections_active.fetch_add(1, std::memory_order_relaxed);
    auto connection = std::make_unique<Connection>();
    connection->stream = std::move(*stream);
    Connection* raw = connection.get();
    {
      std::lock_guard<std::mutex> lock(connections_mutex_);
      connections_.push_back(std::move(connection));
    }
    raw->thread = std::thread([this, raw] { serve_connection(*raw); });
  }
}

namespace {

/// One open session on a connection: its shard slot, the admission epoch it
/// was admitted under (a later mismatch means the shard restarted or drained
/// out from under it), the streaming session the chunk frames feed, and the
/// deadline its Finish will carry.
struct OpenSession {
  std::size_t shard = 0;
  std::uint64_t epoch = 0;
  std::unique_ptr<serve::StreamingSession> session;
  double deadline_ms = 0.0;
};

}  // namespace

void NetServer::serve_connection(Connection& connection) {
  std::vector<double> arena;  ///< read_frame's aligned payload buffer
  std::unordered_map<std::uint64_t, OpenSession> sessions;
  bool alive = true;

  // Best-effort frame send: a peer that hangs up mid-reply just ends the
  // connection, it must never unwind into the server.
  const auto send = [&](FrameType type, std::uint64_t session_id,
                        std::span<const std::uint8_t> payload) {
    try {
      write_frame(connection.stream, type, session_id, payload);
    } catch (const std::exception&) {
      alive = false;
    }
  };
  const auto send_status = [&](FrameType type, std::uint64_t session_id,
                               std::uint16_t code, const std::string& message) {
    send(type, session_id, encode_status(code, message));
  };
  const auto send_error = [&](std::uint64_t session_id, ErrorCode code,
                              const std::string& message) {
    send_status(FrameType::kError, session_id,
                static_cast<std::uint16_t>(code), message);
  };
  const auto send_reject = [&](std::uint64_t session_id, RejectCode code,
                               const std::string& message) {
    send_status(FrameType::kReject, session_id,
                static_cast<std::uint16_t>(code), message);
  };
  const auto close_session = [&](std::uint64_t session_id) {
    auto it = sessions.find(session_id);
    if (it == sessions.end()) return;
    pool_.release_session(it->second.shard);
    sessions.erase(it);
  };

  while (alive && running_.load()) {
    const ReadFrameResult read = read_frame(connection.stream, arena);
    if (read.kind == ReadFrameResult::Kind::kEof) break;
    if (read.kind == ReadFrameResult::Kind::kMalformed) {
      // A poisoned byte stream cannot be resynced (the length prefix is
      // gone); report why and hang up — never crash, never guess.
      stats_.frames_malformed.fetch_add(1, std::memory_order_relaxed);
      send_error(read.header.session_id, ErrorCode::kBadFrame,
                 to_string(read.status));
      break;
    }
    if (read.kind == ReadFrameResult::Kind::kIoError) {
      stats_.io_errors.fetch_add(1, std::memory_order_relaxed);
      break;
    }

    const FrameHeader& header = read.header;
    const std::uint64_t sid = header.session_id;
    switch (header.type) {
      case FrameType::kPing:
        send(FrameType::kPong, sid, payload_bytes(arena, header));
        break;

      case FrameType::kStats:
        send(FrameType::kStatsReply, sid, encode_stats(pool_.stats()));
        break;

      case FrameType::kAdmin: {
        if (sid != 0) {
          send_error(sid, ErrorCode::kProtocol,
                     "admin frames are connection-scoped (session id 0)");
          break;
        }
        if (!config_.enable_admin) {
          send_error(sid, ErrorCode::kProtocol, "admin interface disabled");
          break;
        }
        const std::optional<AdminPayload> admin =
            decode_admin(payload_bytes(arena, header));
        if (!admin) {
          send_error(sid, ErrorCode::kBadFrame, "malformed Admin payload");
          break;
        }
        AdminReplyPayload reply;
        std::string error;
        bool ok = true;
        switch (admin->op) {
          case AdminOp::kAddShard:
            ok = pool_.add_shard(&error);
            reply.message = ok ? "shard added" : error;
            break;
          case AdminOp::kDrainShard:
            ok = pool_.begin_drain(admin->shard, &error);
            reply.message = ok ? "drain started" : error;
            break;
          case AdminOp::kRestartShard:
            ok = pool_.kill_shard(admin->shard, &error);
            reply.message = ok ? "shard killed; supervisor restarting" : error;
            break;
          case AdminOp::kHealth:
            reply.message = "ok";
            break;
        }
        reply.code = ok ? 0 : 1;
        reply.shards = pool_.health_snapshot();
        send(FrameType::kAdminReply, sid, encode_admin_reply(reply));
        break;
      }

      case FrameType::kHello: {
        if (sid == 0) {
          send_error(sid, ErrorCode::kProtocol, "session id 0 is reserved");
          break;
        }
        if (sessions.contains(sid)) {
          send_error(sid, ErrorCode::kProtocol, "session already open");
          break;
        }
        const std::optional<HelloPayload> hello =
            decode_hello(payload_bytes(arena, header));
        if (!hello) {
          send_error(sid, ErrorCode::kBadFrame, "malformed Hello payload");
          break;
        }
        const serve::EngineConfig& engine_config = pool_.engine_config();
        const double rate = engine_config.session.pipeline.chirp.sample_rate;
        if (hello->sample_rate != rate) {
          // The client resamples before streaming (that is what keeps the
          // result bit-identical to the in-process path); a mismatched rate
          // means a misconfigured client, not something to fix up silently.
          std::ostringstream msg;
          msg << "sample rate " << hello->sample_rate
              << " != pipeline rate " << rate << " (resample client-side)";
          send_error(sid, ErrorCode::kUnsupportedRate, msg.str());
          break;
        }
        std::size_t shard = 0;
        std::uint64_t epoch = 0;
        switch (pool_.admit_session(sid, &shard, &epoch)) {
          case Admission::kAdmitted: {
            OpenSession open;
            open.shard = shard;
            open.epoch = epoch;
            open.session = std::make_unique<serve::StreamingSession>(
                engine_config.session);
            open.deadline_ms = hello->deadline_ms > 0.0
                                   ? hello->deadline_ms
                                   : config_.default_deadline_ms;
            sessions.emplace(sid, std::move(open));
            HelloAckPayload ack;
            ack.shard = static_cast<std::uint32_t>(shard);
            ack.sample_rate = rate;
            send(FrameType::kHelloAck, sid, encode_hello_ack(ack));
            break;
          }
          case Admission::kSessionsFull: {
            std::ostringstream msg;
            msg << "shard " << shard << " at capacity ("
                << config_.shards.max_sessions_per_shard << " sessions)";
            send_reject(sid, RejectCode::kShardSessionsFull, msg.str());
            break;
          }
          case Admission::kStopped:
            send_reject(sid, RejectCode::kStopped, "server stopping");
            break;
          case Admission::kDispatchFault:
            send_error(sid, ErrorCode::kInternal, "shard dispatch failed");
            break;
          case Admission::kDraining: {
            std::ostringstream msg;
            msg << "shard " << shard << " is draining; retry to remap";
            send_reject(sid, RejectCode::kShardDraining, msg.str());
            break;
          }
          case Admission::kRestarting: {
            std::ostringstream msg;
            msg << "shard " << shard << " is restarting; retry shortly";
            send_reject(sid, RejectCode::kShardRestarting, msg.str());
            break;
          }
        }
        break;
      }

      case FrameType::kChunk: {
        auto it = sessions.find(sid);
        if (it == sessions.end()) {
          send_error(sid, ErrorCode::kProtocol, "chunk for unknown session");
          break;
        }
        if (!pool_.session_current(it->second.shard, it->second.epoch)) {
          // The shard crashed/restarted (or drained past its deadline) under
          // this session: re-admit nothing silently — the client learns its
          // streamed audio is gone and decides whether to resend.
          send_error(sid, ErrorCode::kShardRestart,
                     to_string(ErrorCode::kShardRestart));
          close_session(sid);
          break;
        }
        if (header.payload_len % sizeof(double) != 0) {
          send_error(sid, ErrorCode::kBadFrame,
                     "chunk length not a multiple of 8");
          close_session(sid);
          break;
        }
        // Zero-copy handoff: the arena IS the sample buffer (read_frame
        // guarantees 8-byte alignment), the filter reads the wire bytes.
        const std::span<const double> samples(arena.data(),
                                              header.payload_len / sizeof(double));
        const std::size_t shard = it->second.shard;
        if (it->second.session->feed(samples) == serve::FeedStatus::kRejected) {
          pool_.engine(shard)->metrics().chunks_refused.fetch_add(
              1, std::memory_order_relaxed);
          send_error(sid, ErrorCode::kStreamOverflow,
                     "session sample buffer full");
          close_session(sid);
          break;
        }
        pool_.engine(shard)->metrics().chunks_fed.fetch_add(
            1, std::memory_order_relaxed);
        break;
      }

      case FrameType::kFinish: {
        auto it = sessions.find(sid);
        if (it == sessions.end()) {
          send_error(sid, ErrorCode::kProtocol, "finish for unknown session");
          break;
        }
        const std::size_t shard = it->second.shard;
        if (!pool_.session_current(shard, it->second.epoch)) {
          send_error(sid, ErrorCode::kShardRestart,
                     to_string(ErrorCode::kShardRestart));
          close_session(sid);
          break;
        }
        serve::ServeRequest request;
        {
          std::ostringstream id;
          id << "net:" << sid;
          request.id = id.str();
        }
        request.timeout_ms = it->second.deadline_ms;
        request.session = std::move(it->second.session);
        // Snapshot the engine once: a restart may swap the shard's engine
        // pointer while this Finish is in flight, and the snapshot keeps the
        // old engine (whose stop() resolves our future) alive until we have
        // our answer.
        const std::shared_ptr<serve::ServingEngine> engine = pool_.engine(shard);
        serve::Submission submission = engine->submit(std::move(request));
        if (!submission.accepted) {
          const ShardHealth health = pool_.shard_health(shard);
          if (health == ShardHealth::kDown || health == ShardHealth::kRestarting) {
            send_error(sid, ErrorCode::kShardRestart,
                       to_string(ErrorCode::kShardRestart));
            close_session(sid);
            break;
          }
          const RejectCode code = engine->running() ? RejectCode::kQueueFull
                                                    : RejectCode::kStopped;
          send_reject(sid, code, submission.reason);
          close_session(sid);
          break;
        }
        // Blocking here is the thread-per-connection contract: this thread
        // has nothing else to do until the shard answers.
        serve::ServeResult result = submission.result.get();
        close_session(sid);
        if (result.deadline_exceeded) {
          send_error(sid, ErrorCode::kDeadlineExceeded,
                     result.error.empty() ? "deadline exceeded" : result.error);
          break;
        }
        if (!result.error.empty()) {
          send_error(sid, ErrorCode::kProcessing, result.error);
          break;
        }
        ResultPayload payload;
        payload.usable = result.usable;
        payload.degraded = result.quality.degraded;
        payload.has_diagnosis = result.diagnosis.has_value();
        if (result.diagnosis) {
          payload.state = static_cast<std::uint8_t>(result.diagnosis->state);
          payload.confidence = result.diagnosis->confidence;
        }
        payload.events = static_cast<std::uint32_t>(result.events);
        payload.echoes = static_cast<std::uint32_t>(result.echoes);
        payload.model_version = result.model_version;
        payload.queue_ms = result.queue_ms;
        payload.total_ms = result.total_ms;
        payload.features = std::move(result.features);
        send(FrameType::kResult, sid, encode_result(payload));
        break;
      }

      default:
        // Server-to-client types arriving at the server are a protocol
        // violation from this peer, not a malformed byte stream.
        send_error(sid, ErrorCode::kProtocol, "unexpected frame type");
        break;
    }
  }

  // Abandoned sessions (peer hung up before Finish) give their slots back.
  for (const auto& [id, open] : sessions) pool_.release_session(open.shard);
  sessions.clear();
  connection.stream.close();
  stats_.connections_active.fetch_sub(1, std::memory_order_relaxed);
  connection.done.store(true);
}

}  // namespace earsonar::net
