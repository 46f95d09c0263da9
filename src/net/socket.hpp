// Dependency-free POSIX TCP wrappers for the serving front-end.
//
// Deliberately minimal: RAII file descriptors, a blocking listener with a
// poll()-based accept timeout (the server's accept loop waits at most 50 ms
// a round, kAcceptPollMs in server.cpp, so it notices stop()), and a
// blocking stream with read-exact/write-all framing helpers. Thread-per-
// connection blocking I/O is the right complexity point here — connection
// counts are bounded by admission control (NetServerConfig::max_connections)
// long before an event loop would pay for itself, and blocking reads keep
// the zero-copy chunk handoff trivial (the payload lands directly in the
// connection's aligned buffer; see server.cpp).
//
// Failure injection: `net.accept` makes accept() report a transient failure,
// `net.frame.read` / `net.frame.write` fail the frame-level I/O helpers —
// the chaos hooks tests use to prove a dying connection never takes the
// server down (docs/robustness.md catalogs all fault points).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "net/frame.hpp"

namespace earsonar::net {

/// A connect or read exceeded its configured timeout. Typed (rather than a
/// plain runtime_error) so callers can tell "the peer is slow/dead" from
/// "the byte stream broke" — the retry layer treats only the former as a
/// deadline-budgeted retryable condition.
struct NetTimeoutError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// RAII socket file descriptor. Move-only; closes on destruction. The fd is
/// atomic because close()/shutdown_both() are the documented cross-thread
/// wakeup mechanism (stop() closes a listener another thread is polling);
/// the atomic makes that hand-off race-free at the language level.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { close(); }

  Socket(Socket&& other) noexcept : fd_(other.fd_.exchange(-1)) {}
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  [[nodiscard]] bool valid() const { return fd_.load(std::memory_order_relaxed) >= 0; }
  [[nodiscard]] int fd() const { return fd_.load(std::memory_order_relaxed); }

  /// shutdown(SHUT_RDWR) without closing: unblocks a read in another thread
  /// while that thread still owns the fd's lifetime. Safe on closed sockets.
  void shutdown_both();
  void close();

 private:
  std::atomic<int> fd_{-1};
};

/// Blocking byte stream over a connected TCP socket.
class TcpStream {
 public:
  TcpStream() = default;
  explicit TcpStream(Socket socket);

  /// Connects to host:port (numeric IPv4 host, e.g. "127.0.0.1"). Throws
  /// std::runtime_error on failure. timeout_ms > 0 bounds the connect
  /// (non-blocking connect + poll; NetTimeoutError past the deadline);
  /// 0 keeps the kernel's blocking connect.
  static TcpStream connect(const std::string& host, std::uint16_t port,
                           int timeout_ms = 0);

  [[nodiscard]] bool valid() const { return socket_.valid(); }
  void shutdown_both() { socket_.shutdown_both(); }
  void close() { socket_.close(); }

  /// Bounds every subsequent read (SO_RCVTIMEO): a read that delivers no
  /// bytes within ms throws NetTimeoutError instead of blocking forever.
  /// 0 restores unbounded blocking reads.
  void set_read_timeout_ms(int ms);

  /// Reads exactly out.size() bytes. False on clean EOF at a frame boundary
  /// (no bytes read yet); throws std::runtime_error on mid-buffer EOF or a
  /// socket error, NetTimeoutError when a configured read timeout expires.
  bool read_exact(std::span<std::uint8_t> out);

  /// Writes head then tail, whole, as one gathered write (sendmsg over two
  /// iovecs, resumed after a partial write) or throws std::runtime_error.
  void write_all(std::span<const std::uint8_t> head,
                 std::span<const std::uint8_t> tail = {});

 private:
  Socket socket_;
  int read_timeout_ms_ = 0;
};

/// Listening socket bound to 127.0.0.1:port (port 0 = ephemeral).
class TcpListener {
 public:
  TcpListener() = default;

  /// Binds and listens. Throws std::runtime_error when the port is taken.
  static TcpListener bind(const std::string& host, std::uint16_t port,
                          int backlog = 64);

  [[nodiscard]] bool valid() const { return socket_.valid(); }
  /// The actually bound port (resolves port 0 to the kernel's choice).
  [[nodiscard]] std::uint16_t port() const { return port_; }

  /// Waits up to timeout_ms for a connection. nullopt on timeout, on a
  /// transient accept failure (including an injected `net.accept` fault),
  /// or once close() has been called from another thread.
  [[nodiscard]] std::optional<TcpStream> accept(int timeout_ms);

  void close() { socket_.close(); }

 private:
  Socket socket_;
  std::uint16_t port_ = 0;
};

// ------------------------------------------------------- frame-level I/O

/// Outcome of read_frame: a full frame arrived, the peer hung up cleanly,
/// or the byte stream was malformed (status says how).
struct ReadFrameResult {
  enum class Kind : std::uint8_t { kFrame, kEof, kMalformed, kIoError };
  Kind kind = Kind::kIoError;
  FrameHeader header;
  DecodeStatus status = DecodeStatus::kOk;  ///< set when kMalformed
  std::string io_error;                     ///< set when kIoError
  bool timed_out = false;  ///< kIoError caused by a read timeout (NetTimeoutError)
};

/// Reads one frame. The payload lands in `payload_f64` — a double vector
/// used as an 8-byte-aligned byte arena — so a kChunk frame's samples can be
/// viewed in place: payload_f64[0 .. payload_len/8) ARE the samples, no
/// copy. Non-chunk payloads are viewed as bytes through payload_bytes().
/// Frame-level CRC and header validation happen here; `net.frame.read`
/// injects an I/O failure.
ReadFrameResult read_frame(TcpStream& stream, std::vector<double>& payload_f64,
                           std::size_t max_payload = kMaxPayload);

/// Byte view of a read_frame payload.
[[nodiscard]] std::span<const std::uint8_t> payload_bytes(
    const std::vector<double>& payload_f64, const FrameHeader& header);

/// Writes header + payload as one gathered send (the payload is not copied).
/// Throws std::runtime_error on failure; `net.frame.write` injects one.
void write_frame(TcpStream& stream, FrameType type, std::uint64_t session_id,
                 std::span<const std::uint8_t> payload);

/// write_frame for float64 sample payloads: the samples are sent directly
/// from the caller's buffer (their IEEE-754 bytes are the wire format — the
/// symmetric zero-copy of read_frame's chunk path).
void write_chunk_frame(TcpStream& stream, std::uint64_t session_id,
                       std::span<const double> samples);

}  // namespace earsonar::net
