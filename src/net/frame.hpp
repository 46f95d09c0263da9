// EarSonar wire protocol: length-prefixed binary frames.
//
// Everything the networked front-end speaks fits in one frame shape:
//
//   offset  size  field
//        0     2  magic 0x5345 ("ES", little-endian u16)
//        2     1  protocol version (kProtocolVersion)
//        3     1  frame type (FrameType)
//        4     4  payload length in bytes (u32, <= max_payload)
//        8     8  session id (u64; 0 for connection-scoped frames)
//       16     4  reserved (must be 0)
//       20     4  CRC32 over header bytes [0, 20) + payload
//       24     —  payload
//
// The 24-byte header is a multiple of 8, so a payload read into an 8-byte-
// aligned buffer keeps float64 audio samples aligned — that is what lets the
// server hand a chunk frame's payload to StreamingSession::feed without a
// copy (see server.cpp). All integers are little-endian on the wire,
// serialized byte-by-byte so the code is endian-agnostic. doubles travel as
// their IEEE-754 bit pattern (bit_cast to u64), which is what makes the
// networked analysis *bit-identical* to the in-process one: no text round-
// trip, no narrowing.
//
// A session is one request: Hello (sample rate + deadline) -> HelloAck or
// Reject -> Chunk* (audio) -> Finish -> Result or Error. Ping/Pong and
// Stats are connection-scoped (session id 0). Rejections are always
// explicit frames carrying a RejectCode + text — the protocol has no silent
// drop: every opened session terminates in exactly one of Result, Reject,
// or Error (or a transport failure the client observes as EOF).
//
// This header is socket-free on purpose: FrameDecoder consumes arbitrary
// byte streams, which is what tests/fuzz/frame_fuzz.cpp fuzzes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "dsp/simd.hpp"

namespace earsonar::net {

inline constexpr std::uint16_t kMagic = 0x5345;  // "ES" little-endian
inline constexpr std::uint8_t kProtocolVersion = 1;
inline constexpr std::size_t kHeaderSize = 24;
/// Hard ceiling on one frame's payload. Audio chunks above this are split by
/// the client; anything larger on the wire is a protocol error, which bounds
/// per-connection memory no matter what a peer claims in its length field.
inline constexpr std::size_t kMaxPayload = 1u << 20;  // 1 MiB = 131072 samples

enum class FrameType : std::uint8_t {
  kHello = 1,      ///< c->s: open a session (HelloPayload)
  kHelloAck = 2,   ///< s->c: session admitted (HelloAckPayload)
  kChunk = 3,      ///< c->s: float64 audio samples, length % 8 == 0
  kFinish = 4,     ///< c->s: end of audio; run the analysis (empty payload)
  kResult = 5,     ///< s->c: analysis result (ResultPayload)
  kReject = 6,     ///< s->c: admission refused (StatusPayload, RejectCode)
  kError = 7,      ///< s->c: protocol/processing error (StatusPayload, ErrorCode)
  kPing = 8,       ///< c->s: echo request (opaque payload)
  kPong = 9,       ///< s->c: echo reply (payload mirrored)
  kStats = 10,     ///< c->s: per-shard stats request (empty payload)
  kStatsReply = 11,///< s->c: StatsPayload
  kAdmin = 12,     ///< c->s: shard lifecycle op, session id 0 (AdminPayload)
  kAdminReply = 13 ///< s->c: op outcome + health snapshot (AdminReplyPayload)
};

/// True for the type values the protocol defines (decoders reject the rest).
[[nodiscard]] bool frame_type_known(std::uint8_t type);

/// Why an admission was refused. On the wire as the u16 head of a
/// StatusPayload in a kReject frame.
enum class RejectCode : std::uint16_t {
  kShardSessionsFull = 1,  ///< target shard has no free live-session slot
  kQueueFull = 2,          ///< shard's request queue rejected the finish
  kStopped = 3,            ///< server or shard is shutting down
  kTooManyConnections = 4, ///< connection-level admission cap reached
  kShardDraining = 5,      ///< target shard is draining; retry (remaps on drop)
  kShardRestarting = 6,    ///< target shard is down/restarting; retry shortly
};

/// Why a frame or session failed. On the wire as the u16 head of a
/// StatusPayload in a kError frame.
enum class ErrorCode : std::uint16_t {
  kProtocol = 1,         ///< malformed frame sequence or header
  kBadFrame = 2,         ///< CRC mismatch / bad length
  kUnsupportedRate = 3,  ///< Hello sample rate != shard pipeline rate
  kProcessing = 4,       ///< the analysis threw
  kDeadlineExceeded = 5, ///< shed or cancelled on the session deadline
  kStreamOverflow = 6,   ///< session sample buffer full (chunk rejected)
  kInternal = 7,         ///< server-side dispatch failure
  kShardRestart = 8,     ///< the session's shard was restarted mid-session
};

[[nodiscard]] const char* to_string(RejectCode code);
[[nodiscard]] const char* to_string(ErrorCode code);

struct FrameHeader {
  std::uint8_t version = kProtocolVersion;
  FrameType type = FrameType::kHello;
  std::uint32_t payload_len = 0;
  std::uint64_t session_id = 0;
  std::uint32_t crc = 0;
};

// ------------------------------------------------------------------ CRC32

/// CRC-32 (IEEE 802.3, polynomial 0xEDB88320, the zlib crc32);
/// crc32("123456789") == 0xCBF43926, and crc32(b, crc32(a)) == crc32(a||b).
/// Two dependency-free paths return identical values: slicing-by-8 tables
/// (portable), and on x86-64 CPUs with PCLMULQDQ a carry-less-multiply fold
/// for spans of 64 bytes or more. The path is chosen once per process: the
/// fold when the CPU has it and dsp::simd::active_level() is kNative
/// (EARSONAR_SIMD=scalar keeps the tables).
[[nodiscard]] std::uint32_t crc32(std::span<const std::uint8_t> bytes,
                                  std::uint32_t seed = 0);

/// crc32 on the path an explicit level selects — parity tests compare the
/// two directly (as dsp::simd::kernel_set(Level) does for the DSP kernels).
[[nodiscard]] std::uint32_t crc32(std::span<const std::uint8_t> bytes,
                                  std::uint32_t seed, dsp::simd::Level level);

/// Name of the path crc32 takes at `level` on this CPU for spans of 64 bytes
/// or more: "pclmul_fold" or "slice8". Reported in bench context.
[[nodiscard]] const char* crc32_path(dsp::simd::Level level);

// ------------------------------------------------- little-endian primitives

void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v);
void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v);
void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v);
void put_f64(std::vector<std::uint8_t>& out, double v);
[[nodiscard]] std::uint16_t get_u16(std::span<const std::uint8_t> in, std::size_t at);
[[nodiscard]] std::uint32_t get_u32(std::span<const std::uint8_t> in, std::size_t at);
[[nodiscard]] std::uint64_t get_u64(std::span<const std::uint8_t> in, std::size_t at);
[[nodiscard]] double get_f64(std::span<const std::uint8_t> in, std::size_t at);

// ------------------------------------------------------------ frame codec

/// Serializes header + payload into one wire buffer (CRC computed here).
[[nodiscard]] std::vector<std::uint8_t> encode_frame(
    FrameType type, std::uint64_t session_id, std::span<const std::uint8_t> payload);

/// Writes the 24 header bytes (CRC already computed over `payload`) into
/// `out`. The split form is what the socket layer uses to send a chunk
/// payload from the caller's buffer without concatenating.
void encode_header(std::span<std::uint8_t> out, FrameType type,
                   std::uint64_t session_id, std::span<const std::uint8_t> payload);

enum class DecodeStatus : std::uint8_t {
  kOk,           ///< header parsed
  kNeedMore,     ///< fewer than kHeaderSize bytes available
  kBadMagic,
  kBadVersion,
  kBadType,
  kBadLength,    ///< payload_len exceeds the decoder's max
  kBadReserved,
  kBadCrc,       ///< reported by check_crc / FrameDecoder, not parse_header
};

[[nodiscard]] const char* to_string(DecodeStatus status);

/// Parses and validates the fixed 24-byte header (everything except the
/// CRC, which needs the payload). `max_payload` bounds the length field.
[[nodiscard]] DecodeStatus parse_header(std::span<const std::uint8_t> bytes,
                                        FrameHeader& out,
                                        std::size_t max_payload = kMaxPayload);

/// Verifies header.crc against the actual header bytes + payload.
[[nodiscard]] bool check_crc(std::span<const std::uint8_t> header_bytes,
                             std::span<const std::uint8_t> payload,
                             const FrameHeader& header);

/// A decoded frame with an owning payload copy (the incremental decoder's
/// output; the server's blocking read path keeps payloads zero-copy in its
/// own aligned buffers instead — see server.cpp).
struct Frame {
  FrameHeader header;
  std::vector<std::uint8_t> payload;
};

/// Incremental decoder over an arbitrary byte stream. Push bytes as they
/// arrive; next() yields complete validated frames. The first malformed
/// byte sequence poisons the stream (error() != kOk and next() stays empty)
/// — exactly how a server connection reacts: report, then hang up. This is
/// the surface tests/fuzz/frame_fuzz.cpp fuzzes.
class FrameDecoder {
 public:
  explicit FrameDecoder(std::size_t max_payload = kMaxPayload);

  void push(std::span<const std::uint8_t> bytes);
  [[nodiscard]] std::optional<Frame> next();

  [[nodiscard]] DecodeStatus error() const { return error_; }
  [[nodiscard]] bool poisoned() const { return error_ != DecodeStatus::kOk; }
  /// Bytes buffered but not yet consumed as frames.
  [[nodiscard]] std::size_t pending_bytes() const { return buffer_.size() - consumed_; }

 private:
  std::size_t max_payload_;
  std::vector<std::uint8_t> buffer_;
  std::size_t consumed_ = 0;
  DecodeStatus error_ = DecodeStatus::kOk;
};

// -------------------------------------------------------- payload structs

struct HelloPayload {
  double sample_rate = 48000.0;
  double deadline_ms = 0.0;  ///< 0 = no deadline
};

struct HelloAckPayload {
  std::uint32_t shard = 0;        ///< which shard the session landed on
  double sample_rate = 48000.0;   ///< the rate the shard's pipeline expects
};

/// kReject / kError body: a machine-readable code plus human-readable text.
struct StatusPayload {
  std::uint16_t code = 0;
  std::string message;
};

/// kResult body: the subset of serve::ServeResult a remote client needs,
/// including the raw feature vector so the loopback equivalence test can
/// compare the wire answer bit-for-bit against the in-process pipeline.
struct ResultPayload {
  bool usable = false;
  bool degraded = false;
  bool has_diagnosis = false;
  std::uint8_t state = 0;        ///< core::MeeState index when has_diagnosis
  double confidence = 0.0;
  std::uint32_t events = 0;
  std::uint32_t echoes = 0;
  std::uint64_t model_version = 0;
  double queue_ms = 0.0;
  double total_ms = 0.0;
  std::vector<double> features;  ///< empty when !usable
};

/// One shard's counters inside a kStatsReply (see shard.hpp for how the
/// pool assembles them).
struct ShardStatsWire {
  std::uint64_t accepted = 0;
  std::uint64_t completed = 0;
  std::uint64_t rejected_queue_full = 0;
  std::uint64_t deadline_exceeded = 0;
  std::uint64_t degraded = 0;
  std::uint64_t failed = 0;
  std::uint64_t chunks_fed = 0;
  std::uint64_t sessions_active = 0;
  std::uint64_t sessions_rejected = 0;
  std::uint64_t health = 0;    ///< ShardHealth value (shard.hpp)
  std::uint64_t epoch = 0;     ///< admission epoch; bumps on restart/drain overrun
  std::uint64_t restarts = 0;  ///< completed supervisor restarts
};

struct StatsPayload {
  std::vector<ShardStatsWire> shards;
};

// ------------------------------------------------------ admin (lifecycle)

/// What a session-0 kAdmin frame asks the shard pool to do. Gated behind
/// NetServerConfig::enable_admin; refused with ErrorCode::kProtocol when off.
enum class AdminOp : std::uint8_t {
  kAddShard = 1,      ///< grow the pool by one shard (minimal-remap ring insert)
  kDrainShard = 2,    ///< graceful drain: out of the ring, finish in-flight, retire
  kRestartShard = 3,  ///< kill the shard (supervisor restarts it)
  kHealth = 4,        ///< no-op; reply carries the health snapshot
};

struct AdminPayload {
  AdminOp op = AdminOp::kHealth;
  std::uint32_t shard = 0;  ///< target slot (ignored by kAddShard/kHealth)
};

/// One shard slot's lifecycle state inside a kAdminReply.
struct ShardHealthWire {
  std::uint32_t slot = 0;
  std::uint8_t health = 0;   ///< ShardHealth value (shard.hpp)
  std::uint8_t in_ring = 0;  ///< 1 when the slot still owns ring points
  std::uint64_t epoch = 0;
  std::uint64_t restarts = 0;
};

struct AdminReplyPayload {
  std::uint16_t code = 0;  ///< 0 = ok, nonzero = refused (message says why)
  std::string message;
  std::vector<ShardHealthWire> shards;
};

[[nodiscard]] std::vector<std::uint8_t> encode_hello(const HelloPayload& hello);
[[nodiscard]] std::vector<std::uint8_t> encode_hello_ack(const HelloAckPayload& ack);
[[nodiscard]] std::vector<std::uint8_t> encode_status(std::uint16_t code,
                                                      std::string_view message);
[[nodiscard]] std::vector<std::uint8_t> encode_result(const ResultPayload& result);
[[nodiscard]] std::vector<std::uint8_t> encode_stats(const StatsPayload& stats);
[[nodiscard]] std::vector<std::uint8_t> encode_admin(const AdminPayload& admin);
[[nodiscard]] std::vector<std::uint8_t> encode_admin_reply(
    const AdminReplyPayload& reply);

/// Decoders return nullopt on short/malformed payloads (a protocol error at
/// the call site, not an exception: remote bytes are data, not invariants).
[[nodiscard]] std::optional<HelloPayload> decode_hello(std::span<const std::uint8_t> p);
[[nodiscard]] std::optional<HelloAckPayload> decode_hello_ack(
    std::span<const std::uint8_t> p);
[[nodiscard]] std::optional<StatusPayload> decode_status(std::span<const std::uint8_t> p);
[[nodiscard]] std::optional<ResultPayload> decode_result(std::span<const std::uint8_t> p);
[[nodiscard]] std::optional<StatsPayload> decode_stats(std::span<const std::uint8_t> p);
[[nodiscard]] std::optional<AdminPayload> decode_admin(std::span<const std::uint8_t> p);
[[nodiscard]] std::optional<AdminReplyPayload> decode_admin_reply(
    std::span<const std::uint8_t> p);

}  // namespace earsonar::net
