#include "net/socket.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cstring>
#include <sstream>

#include "common/error.hpp"
#include "common/fault.hpp"

namespace earsonar::net {

namespace {

[[noreturn]] void fail_errno(const char* what) {
  std::ostringstream msg;
  msg << what << ": " << std::strerror(errno);
  fail(msg.str());
}

sockaddr_in make_addr(const std::string& host, std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1)
    fail("invalid IPv4 host: " + host);
  return addr;
}

}  // namespace

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    close();
    fd_.store(other.fd_.exchange(-1));
  }
  return *this;
}

void Socket::shutdown_both() {
  const int fd = fd_.load();
  if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
}

void Socket::close() {
  const int fd = fd_.exchange(-1);
  if (fd >= 0) ::close(fd);
}

TcpStream::TcpStream(Socket socket) : socket_(std::move(socket)) {
  if (socket_.valid()) {
    // Frames are small and latency-sensitive; never batch them behind Nagle.
    int one = 1;
    ::setsockopt(socket_.fd(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  }
}

TcpStream TcpStream::connect(const std::string& host, std::uint16_t port,
                             int timeout_ms) {
  Socket socket(::socket(AF_INET, SOCK_STREAM, 0));
  if (!socket.valid()) fail_errno("socket");
  const sockaddr_in addr = make_addr(host, port);
  if (timeout_ms <= 0) {
    if (::connect(socket.fd(), reinterpret_cast<const sockaddr*>(&addr),
                  sizeof addr) != 0)
      fail_errno("connect");
    return TcpStream(std::move(socket));
  }
  // Bounded connect: flip the socket non-blocking, start the connect, wait
  // for writability with poll, read the outcome from SO_ERROR, then restore
  // blocking mode for the stream's read/write path.
  const int flags = ::fcntl(socket.fd(), F_GETFL, 0);
  if (flags < 0) fail_errno("fcntl(F_GETFL)");
  if (::fcntl(socket.fd(), F_SETFL, flags | O_NONBLOCK) != 0)
    fail_errno("fcntl(F_SETFL)");
  if (::connect(socket.fd(), reinterpret_cast<const sockaddr*>(&addr),
                sizeof addr) != 0) {
    if (errno != EINPROGRESS) fail_errno("connect");
    pollfd pfd{socket.fd(), POLLOUT, 0};
    const int ready = ::poll(&pfd, 1, timeout_ms);
    if (ready == 0) {
      std::ostringstream msg;
      msg << "connect to " << host << ":" << port << " timed out after "
          << timeout_ms << " ms";
      throw NetTimeoutError(msg.str());
    }
    if (ready < 0) fail_errno("poll(connect)");
    int so_error = 0;
    socklen_t len = sizeof so_error;
    if (::getsockopt(socket.fd(), SOL_SOCKET, SO_ERROR, &so_error, &len) != 0)
      fail_errno("getsockopt(SO_ERROR)");
    if (so_error != 0) {
      errno = so_error;
      fail_errno("connect");
    }
  }
  if (::fcntl(socket.fd(), F_SETFL, flags) != 0) fail_errno("fcntl(F_SETFL)");
  return TcpStream(std::move(socket));
}

void TcpStream::set_read_timeout_ms(int ms) {
  if (!socket_.valid()) return;
  timeval tv{};
  if (ms > 0) {
    tv.tv_sec = ms / 1000;
    tv.tv_usec = static_cast<suseconds_t>(ms % 1000) * 1000;
  }
  if (::setsockopt(socket_.fd(), SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv) != 0)
    fail_errno("setsockopt(SO_RCVTIMEO)");
  read_timeout_ms_ = ms;
}

bool TcpStream::read_exact(std::span<std::uint8_t> out) {
  std::size_t got = 0;
  while (got < out.size()) {
    const ssize_t n = ::read(socket_.fd(), out.data() + got, out.size() - got);
    if (n == 0) {
      if (got == 0) return false;  // clean EOF between frames
      fail("read_exact: connection closed mid-frame");
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      if ((errno == EAGAIN || errno == EWOULDBLOCK) && read_timeout_ms_ > 0) {
        std::ostringstream msg;
        msg << "read timed out after " << read_timeout_ms_ << " ms";
        throw NetTimeoutError(msg.str());
      }
      fail_errno("read");
    }
    got += static_cast<std::size_t>(n);
  }
  return true;
}

void TcpStream::write_all(std::span<const std::uint8_t> head,
                          std::span<const std::uint8_t> tail) {
  iovec iov[2] = {{const_cast<std::uint8_t*>(head.data()), head.size()},
                  {const_cast<std::uint8_t*>(tail.data()), tail.size()}};
  std::size_t first = 0;  // first iovec with bytes left to send
  for (;;) {
    while (first < 2 && iov[first].iov_len == 0) ++first;
    if (first == 2) return;
    msghdr msg{};
    msg.msg_iov = iov + first;
    msg.msg_iovlen = 2 - first;
    // MSG_NOSIGNAL: a peer that hung up must surface as EPIPE (an exception
    // the caller handles), never as a process-killing SIGPIPE.
    const ssize_t n = ::sendmsg(socket_.fd(), &msg, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      fail_errno("sendmsg");
    }
    // A partial write: advance over whatever the kernel took.
    auto sent = static_cast<std::size_t>(n);
    for (std::size_t i = first; i < 2 && sent > 0; ++i) {
      const std::size_t take = std::min(sent, iov[i].iov_len);
      iov[i].iov_base = static_cast<std::uint8_t*>(iov[i].iov_base) + take;
      iov[i].iov_len -= take;
      sent -= take;
    }
  }
}

TcpListener TcpListener::bind(const std::string& host, std::uint16_t port,
                              int backlog) {
  Socket socket(::socket(AF_INET, SOCK_STREAM, 0));
  if (!socket.valid()) fail_errno("socket");
  int one = 1;
  ::setsockopt(socket.fd(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  const sockaddr_in addr = make_addr(host, port);
  if (::bind(socket.fd(), reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0)
    fail_errno("bind");
  if (::listen(socket.fd(), backlog) != 0) fail_errno("listen");

  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  if (::getsockname(socket.fd(), reinterpret_cast<sockaddr*>(&bound), &len) != 0)
    fail_errno("getsockname");

  TcpListener listener;
  listener.socket_ = std::move(socket);
  listener.port_ = ntohs(bound.sin_port);
  return listener;
}

std::optional<TcpStream> TcpListener::accept(int timeout_ms) {
  if (!socket_.valid()) return std::nullopt;
  pollfd pfd{socket_.fd(), POLLIN, 0};
  const int ready = ::poll(&pfd, 1, timeout_ms);
  if (ready <= 0) return std::nullopt;  // timeout or transient poll error
  // Chaos hook: a fired fault looks like a transient accept() failure (e.g.
  // EMFILE or a connection reset before accept) — the loop must shrug it off.
  if (fault::point("net.accept")) return std::nullopt;
  const int fd = ::accept(socket_.fd(), nullptr, nullptr);
  if (fd < 0) return std::nullopt;
  return TcpStream(Socket(fd));
}

// ------------------------------------------------------- frame-level I/O

ReadFrameResult read_frame(TcpStream& stream, std::vector<double>& payload_f64,
                           std::size_t max_payload) {
  ReadFrameResult result;
  std::uint8_t header_bytes[kHeaderSize];
  try {
    if (fault::point("net.frame.read")) fail("injected fault: net.frame.read");
    if (!stream.read_exact(header_bytes)) {
      result.kind = ReadFrameResult::Kind::kEof;
      return result;
    }
    const DecodeStatus status = parse_header(header_bytes, result.header, max_payload);
    if (status != DecodeStatus::kOk) {
      result.kind = ReadFrameResult::Kind::kMalformed;
      result.status = status;
      return result;
    }
    // The payload arena is a double vector so its storage is 8-byte aligned:
    // a kChunk frame's float64 samples are then readable in place. For every
    // other type the same storage is just bytes (payload_bytes()).
    payload_f64.resize((result.header.payload_len + 7) / 8);
    const std::span<std::uint8_t> payload(
        reinterpret_cast<std::uint8_t*>(payload_f64.data()),
        result.header.payload_len);
    if (result.header.payload_len > 0 && !stream.read_exact(payload))
      fail("read_frame: connection closed before payload");
    if (!check_crc(header_bytes, payload, result.header)) {
      result.kind = ReadFrameResult::Kind::kMalformed;
      result.status = DecodeStatus::kBadCrc;
      return result;
    }
  } catch (const NetTimeoutError& e) {
    result.kind = ReadFrameResult::Kind::kIoError;
    result.io_error = e.what();
    result.timed_out = true;
    return result;
  } catch (const std::exception& e) {
    result.kind = ReadFrameResult::Kind::kIoError;
    result.io_error = e.what();
    return result;
  }
  result.kind = ReadFrameResult::Kind::kFrame;
  return result;
}

std::span<const std::uint8_t> payload_bytes(const std::vector<double>& payload_f64,
                                            const FrameHeader& header) {
  return {reinterpret_cast<const std::uint8_t*>(payload_f64.data()),
          header.payload_len};
}

void write_frame(TcpStream& stream, FrameType type, std::uint64_t session_id,
                 std::span<const std::uint8_t> payload) {
  if (fault::point("net.frame.write")) fail("injected fault: net.frame.write");
  std::uint8_t header_bytes[kHeaderSize];
  encode_header(header_bytes, type, session_id, payload);
  // One gathered write per frame: under TCP_NODELAY two writes would put
  // the 24-byte header on the wire as a segment of its own.
  stream.write_all(header_bytes, payload);
}

void write_chunk_frame(TcpStream& stream, std::uint64_t session_id,
                       std::span<const double> samples) {
  // The samples' in-memory IEEE-754 bytes are the wire format on a little-
  // endian host; serialize explicitly only if the platform is big-endian.
  static_assert(std::endian::native == std::endian::little,
                "wire format is little-endian; add byte swapping for BE hosts");
  write_frame(stream, FrameType::kChunk, session_id,
              {reinterpret_cast<const std::uint8_t*>(samples.data()),
               samples.size() * sizeof(double)});
}

}  // namespace earsonar::net
