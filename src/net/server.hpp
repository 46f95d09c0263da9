// NetServer: the TCP front-end over a ShardPool.
//
//   accept loop ──▶ connection thread × M (bounded by max_connections)
//                        │ read_frame (zero-copy payload arena)
//                        │ Hello  → ShardPool::admit_session → HelloAck|Reject
//                        │ Chunk  → StreamingSession::feed (in-place span)
//                        │ Finish → shard engine submit → Result|Reject|Error
//                        └ Ping/Stats answered inline
//
// Admission is layered and every refusal is an explicit frame:
//   1. connection cap  — accept loop answers Reject(kTooManyConnections)
//                        and hangs up before a session can open;
//   2. session slots   — Hello answered with Reject(kShardSessionsFull)
//                        when the session's shard is at capacity;
//   3. request queue   — Finish answered with Reject(kQueueFull) when the
//                        shard's BoundedQueue refuses the finalization.
// Nothing is ever silently dropped: each opened session terminates in
// exactly one of Result, Reject, or Error.
//
// Zero-copy ingest: read_frame lands a chunk frame's payload in an 8-byte-
// aligned double arena owned by the connection; the samples are fed to the
// session as a span over that arena — the bytes the client sent are the
// bytes the filter reads.
//
// Threading: one accept thread plus one blocking thread per connection —
// the right complexity point while max_connections bounds the thread count
// (see socket.hpp). The accept thread wakes every 50 ms to notice stop();
// stop() also closes the listener, shuts each connection's socket down to
// unblock its read, then joins everything.
#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "net/shard.hpp"
#include "net/socket.hpp"

namespace earsonar::net {

struct NetServerConfig {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;  ///< 0 = ephemeral; see NetServer::port()
  /// Concurrent connections before the accept loop rejects (explicitly —
  /// the peer gets a Reject frame, not a hang).
  std::size_t max_connections = 256;
  ShardConfig shards;
  /// Deadline applied to sessions whose Hello carries none (0 = none).
  double default_deadline_ms = 0.0;
  /// Accept session-0 kAdmin frames (live resize / drain / restart / health).
  /// Off by default: lifecycle control is an operator surface, not something
  /// every client should reach. When off, kAdmin is answered with
  /// Error{kProtocol}.
  bool enable_admin = false;

  void validate() const;
};

/// Connection-level counters (session/request counters live per shard in
/// ShardPool::stats()).
struct NetServerStats {
  std::atomic<std::uint64_t> connections_accepted{0};
  std::atomic<std::uint64_t> connections_rejected{0};
  std::atomic<std::int64_t> connections_active{0};
  std::atomic<std::uint64_t> frames_malformed{0};
  std::atomic<std::uint64_t> io_errors{0};
};

class NetServer {
 public:
  explicit NetServer(NetServerConfig config);
  ~NetServer();

  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  /// Binds the listener, starts the shard engines and the accept loop.
  void start();
  /// Stops accepting, unblocks and joins every connection, drains shards.
  void stop();

  [[nodiscard]] bool running() const { return running_.load(); }
  /// The bound port (resolves an ephemeral request).
  [[nodiscard]] std::uint16_t port() const { return listener_.port(); }

  [[nodiscard]] ShardPool& shards() { return pool_; }
  [[nodiscard]] const NetServerStats& stats() const { return stats_; }
  [[nodiscard]] const NetServerConfig& config() const { return config_; }

 private:
  struct Connection {
    TcpStream stream;
    std::thread thread;
    std::atomic<bool> done{false};
  };

  void accept_loop();
  void serve_connection(Connection& connection);
  /// Joins finished connection threads (called from the accept loop so the
  /// registry stays bounded over a long uptime).
  void reap_finished();

  NetServerConfig config_;
  ShardPool pool_;
  TcpListener listener_;
  std::thread accept_thread_;
  std::mutex connections_mutex_;
  std::list<std::unique_ptr<Connection>> connections_;
  NetServerStats stats_;
  std::atomic<bool> running_{false};
};

}  // namespace earsonar::net
