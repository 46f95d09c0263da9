#include "net/frame.hpp"

#include <array>
#include <bit>
#include <cstring>

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#endif

#include "common/error.hpp"

namespace earsonar::net {

bool frame_type_known(std::uint8_t type) {
  return type >= static_cast<std::uint8_t>(FrameType::kHello) &&
         type <= static_cast<std::uint8_t>(FrameType::kAdminReply);
}

const char* to_string(RejectCode code) {
  switch (code) {
    case RejectCode::kShardSessionsFull: return "shard session slots full";
    case RejectCode::kQueueFull: return "shard queue full";
    case RejectCode::kStopped: return "server stopped";
    case RejectCode::kTooManyConnections: return "too many connections";
    case RejectCode::kShardDraining: return "shard draining";
    case RejectCode::kShardRestarting: return "shard restarting";
  }
  return "unknown reject code";
}

const char* to_string(ErrorCode code) {
  switch (code) {
    case ErrorCode::kProtocol: return "protocol error";
    case ErrorCode::kBadFrame: return "bad frame";
    case ErrorCode::kUnsupportedRate: return "unsupported sample rate";
    case ErrorCode::kProcessing: return "processing error";
    case ErrorCode::kDeadlineExceeded: return "deadline exceeded";
    case ErrorCode::kStreamOverflow: return "stream buffer overflow";
    case ErrorCode::kInternal: return "internal error";
    case ErrorCode::kShardRestart: return "shard restarted mid-session";
  }
  return "unknown error code";
}

const char* to_string(DecodeStatus status) {
  switch (status) {
    case DecodeStatus::kOk: return "ok";
    case DecodeStatus::kNeedMore: return "need more bytes";
    case DecodeStatus::kBadMagic: return "bad magic";
    case DecodeStatus::kBadVersion: return "unsupported version";
    case DecodeStatus::kBadType: return "unknown frame type";
    case DecodeStatus::kBadLength: return "payload length out of bounds";
    case DecodeStatus::kBadReserved: return "nonzero reserved field";
    case DecodeStatus::kBadCrc: return "crc mismatch";
  }
  return "unknown decode status";
}

// ------------------------------------------------------------------ CRC32

namespace {

// Slicing-by-8 tables: row 0 is the classic bytewise table; row k advances a
// byte's contribution by k further zero bytes, so eight rows consume eight
// input bytes per step.
using Crc32Tables = std::array<std::array<std::uint32_t, 256>, 8>;

Crc32Tables make_crc_tables() {
  Crc32Tables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k)
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k)
    for (std::size_t i = 0; i < 256; ++i)
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
  return t;
}

std::uint32_t load_le32(const std::uint8_t* p) {
  return std::uint32_t{p[0]} | (std::uint32_t{p[1]} << 8) |
         (std::uint32_t{p[2]} << 16) | (std::uint32_t{p[3]} << 24);
}

// The raw CRC register update (no pre/post inversion), slicing-by-8 with a
// bytewise tail. Portable; the scalar path and the fold's finisher.
std::uint32_t crc32_update_slice8(std::uint32_t c, const std::uint8_t* p,
                                  std::size_t n) {
  static const Crc32Tables t = make_crc_tables();
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = load_le32(p) ^ c;
    const std::uint32_t hi = load_le32(p + 4);
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^ t[5][(lo >> 16) & 0xFFu] ^
        t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu] ^
        t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) c = t[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  return c;
}

#if defined(__x86_64__) && defined(__GNUC__)

// Carry-less-multiply folding (Gopal et al., "Fast CRC Computation for
// Generic Polynomials Using PCLMULQDQ", Intel 2009), bit-reflected form.
// Four 128-bit lanes fold forward 512 bits per 64-byte step; the lanes then
// fold into one and absorb the remaining whole 16-byte blocks. The folded
// 16 bytes are congruent to everything consumed, so the raw CRC register
// over them (from 0) equals the register over the consumed bytes — the
// portable update finishes the job without a Barrett reduction.

__m128i load128(const std::uint8_t* at) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(at));
}

// Moves `lane` forward by the distance `k` encodes and adds `next`.
__attribute__((target("pclmul"))) __m128i fold128(__m128i lane, __m128i k,
                                                  __m128i next) {
  const __m128i lo = _mm_clmulepi64_si128(lane, k, 0x00);
  const __m128i hi = _mm_clmulepi64_si128(lane, k, 0x11);
  return _mm_xor_si128(_mm_xor_si128(lo, hi), next);
}

// Requires n >= 64; consumes n rounded down to a multiple of 16 by folding
// and the rest through the portable update.
__attribute__((target("pclmul"))) std::uint32_t crc32_update_fold(
    std::uint32_t c, const std::uint8_t* p, std::size_t n) {
  // Fold constants [x^(d+32) mod P]' << 1 (low lane half) and
  // [x^(d-32) mod P]' << 1 (high half), ' = bit-reflected, for a fold
  // distance d of 4*128 bits (k4) and 128 bits (k1).
  const __m128i k4 = _mm_set_epi64x(0x1c6e41596, 0x154442bd4);
  const __m128i k1 = _mm_set_epi64x(0xccaa009e, 0x1751997d0);

  __m128i x0 = _mm_xor_si128(load128(p), _mm_cvtsi32_si128(static_cast<int>(c)));
  __m128i x1 = load128(p + 16);
  __m128i x2 = load128(p + 32);
  __m128i x3 = load128(p + 48);
  p += 64;
  n -= 64;
  for (; n >= 64; p += 64, n -= 64) {
    x0 = fold128(x0, k4, load128(p));
    x1 = fold128(x1, k4, load128(p + 16));
    x2 = fold128(x2, k4, load128(p + 32));
    x3 = fold128(x3, k4, load128(p + 48));
  }
  x0 = fold128(x0, k1, x1);
  x0 = fold128(x0, k1, x2);
  x0 = fold128(x0, k1, x3);
  for (; n >= 16; p += 16, n -= 16) x0 = fold128(x0, k1, load128(p));

  alignas(16) std::uint8_t folded[16];
  _mm_store_si128(reinterpret_cast<__m128i*>(folded), x0);
  return crc32_update_slice8(crc32_update_slice8(0, folded, 16), p, n);
}

#endif

bool use_fold(dsp::simd::Level level) {
#if defined(__x86_64__) && defined(__GNUC__)
  static const bool cpu_has_pclmul = __builtin_cpu_supports("pclmul");
  return level == dsp::simd::Level::kNative && cpu_has_pclmul;
#else
  (void)level;
  return false;
#endif
}

}  // namespace

std::uint32_t crc32(std::span<const std::uint8_t> bytes, std::uint32_t seed,
                    dsp::simd::Level level) {
  const std::uint32_t c = seed ^ 0xFFFFFFFFu;
#if defined(__x86_64__) && defined(__GNUC__)
  if (bytes.size() >= 64 && use_fold(level))
    return crc32_update_fold(c, bytes.data(), bytes.size()) ^ 0xFFFFFFFFu;
#endif
  return crc32_update_slice8(c, bytes.data(), bytes.size()) ^ 0xFFFFFFFFu;
}

std::uint32_t crc32(std::span<const std::uint8_t> bytes, std::uint32_t seed) {
  static const dsp::simd::Level level = dsp::simd::active_level();
  return crc32(bytes, seed, level);
}

const char* crc32_path(dsp::simd::Level level) {
  return use_fold(level) ? "pclmul_fold" : "slice8";
}

// ------------------------------------------------- little-endian primitives

void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void put_f64(std::vector<std::uint8_t>& out, double v) {
  put_u64(out, std::bit_cast<std::uint64_t>(v));
}

std::uint16_t get_u16(std::span<const std::uint8_t> in, std::size_t at) {
  return static_cast<std::uint16_t>(in[at] | (std::uint16_t{in[at + 1]} << 8));
}

std::uint32_t get_u32(std::span<const std::uint8_t> in, std::size_t at) {
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | in[at + static_cast<std::size_t>(i)];
  return v;
}

std::uint64_t get_u64(std::span<const std::uint8_t> in, std::size_t at) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | in[at + static_cast<std::size_t>(i)];
  return v;
}

double get_f64(std::span<const std::uint8_t> in, std::size_t at) {
  return std::bit_cast<double>(get_u64(in, at));
}

// ------------------------------------------------------------ frame codec

namespace {

// Header bytes [0, 20): everything the CRC covers besides the payload.
void write_header_prefix(std::uint8_t* out, FrameType type, std::uint64_t session_id,
                         std::uint32_t payload_len) {
  out[0] = static_cast<std::uint8_t>(kMagic & 0xFF);
  out[1] = static_cast<std::uint8_t>(kMagic >> 8);
  out[2] = kProtocolVersion;
  out[3] = static_cast<std::uint8_t>(type);
  for (int i = 0; i < 4; ++i)
    out[4 + i] = static_cast<std::uint8_t>(payload_len >> (8 * i));
  for (int i = 0; i < 8; ++i)
    out[8 + i] = static_cast<std::uint8_t>(session_id >> (8 * i));
  for (int i = 0; i < 4; ++i) out[16 + i] = 0;  // reserved
}

}  // namespace

void encode_header(std::span<std::uint8_t> out, FrameType type,
                   std::uint64_t session_id, std::span<const std::uint8_t> payload) {
  require(out.size() >= kHeaderSize, "encode_header: buffer shorter than a header");
  require(payload.size() <= 0xFFFFFFFFu, "encode_header: payload too large");
  write_header_prefix(out.data(), type, session_id,
                      static_cast<std::uint32_t>(payload.size()));
  const std::uint32_t crc = crc32(payload, crc32(out.first(20)));
  for (int i = 0; i < 4; ++i)
    out[20 + static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(crc >> (8 * i));
}

std::vector<std::uint8_t> encode_frame(FrameType type, std::uint64_t session_id,
                                       std::span<const std::uint8_t> payload) {
  std::vector<std::uint8_t> out(kHeaderSize + payload.size());
  encode_header(std::span<std::uint8_t>(out).first(kHeaderSize), type, session_id,
                payload);
  if (!payload.empty())
    std::memcpy(out.data() + kHeaderSize, payload.data(), payload.size());
  return out;
}

DecodeStatus parse_header(std::span<const std::uint8_t> bytes, FrameHeader& out,
                          std::size_t max_payload) {
  if (bytes.size() < kHeaderSize) return DecodeStatus::kNeedMore;
  if (get_u16(bytes, 0) != kMagic) return DecodeStatus::kBadMagic;
  if (bytes[2] != kProtocolVersion) return DecodeStatus::kBadVersion;
  if (!frame_type_known(bytes[3])) return DecodeStatus::kBadType;
  const std::uint32_t len = get_u32(bytes, 4);
  if (len > max_payload) return DecodeStatus::kBadLength;
  if (get_u32(bytes, 16) != 0) return DecodeStatus::kBadReserved;
  out.version = bytes[2];
  out.type = static_cast<FrameType>(bytes[3]);
  out.payload_len = len;
  out.session_id = get_u64(bytes, 8);
  out.crc = get_u32(bytes, 20);
  return DecodeStatus::kOk;
}

bool check_crc(std::span<const std::uint8_t> header_bytes,
               std::span<const std::uint8_t> payload, const FrameHeader& header) {
  return crc32(payload, crc32(header_bytes.first(20))) == header.crc;
}

FrameDecoder::FrameDecoder(std::size_t max_payload) : max_payload_(max_payload) {}

void FrameDecoder::push(std::span<const std::uint8_t> bytes) {
  if (poisoned()) return;
  // Compact the consumed prefix before growing — the buffer never holds more
  // than one partial frame plus whatever push() just delivered.
  if (consumed_ > 0) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(consumed_));
    consumed_ = 0;
  }
  buffer_.insert(buffer_.end(), bytes.begin(), bytes.end());
}

std::optional<Frame> FrameDecoder::next() {
  if (poisoned()) return std::nullopt;
  const std::span<const std::uint8_t> avail =
      std::span<const std::uint8_t>(buffer_).subspan(consumed_);
  FrameHeader header;
  const DecodeStatus status = parse_header(avail, header, max_payload_);
  if (status == DecodeStatus::kNeedMore) return std::nullopt;
  if (status != DecodeStatus::kOk) {
    error_ = status;
    return std::nullopt;
  }
  if (avail.size() < kHeaderSize + header.payload_len) return std::nullopt;
  const auto payload = avail.subspan(kHeaderSize, header.payload_len);
  if (!check_crc(avail, payload, header)) {
    error_ = DecodeStatus::kBadCrc;
    return std::nullopt;
  }
  consumed_ += kHeaderSize + header.payload_len;
  Frame frame;
  frame.header = header;
  frame.payload.assign(payload.begin(), payload.end());
  return frame;
}

// -------------------------------------------------------- payload structs

std::vector<std::uint8_t> encode_hello(const HelloPayload& hello) {
  std::vector<std::uint8_t> out;
  out.reserve(16);
  put_f64(out, hello.sample_rate);
  put_f64(out, hello.deadline_ms);
  return out;
}

std::optional<HelloPayload> decode_hello(std::span<const std::uint8_t> p) {
  // Hello is rate + deadline. Older clients append a 17th byte that is
  // always 0 for an EarSonar session; any other value is refused.
  if (p.size() != 16 && !(p.size() == 17 && p[16] == 0)) return std::nullopt;
  HelloPayload hello;
  hello.sample_rate = get_f64(p, 0);
  hello.deadline_ms = get_f64(p, 8);
  return hello;
}

std::vector<std::uint8_t> encode_hello_ack(const HelloAckPayload& ack) {
  std::vector<std::uint8_t> out;
  out.reserve(16);
  put_u32(out, ack.shard);
  put_u32(out, 0);
  put_f64(out, ack.sample_rate);
  return out;
}

std::optional<HelloAckPayload> decode_hello_ack(std::span<const std::uint8_t> p) {
  if (p.size() != 16) return std::nullopt;
  HelloAckPayload ack;
  ack.shard = get_u32(p, 0);
  ack.sample_rate = get_f64(p, 8);
  return ack;
}

std::vector<std::uint8_t> encode_status(std::uint16_t code, std::string_view message) {
  std::vector<std::uint8_t> out;
  out.reserve(2 + message.size());
  put_u16(out, code);
  out.insert(out.end(), message.begin(), message.end());
  return out;
}

std::optional<StatusPayload> decode_status(std::span<const std::uint8_t> p) {
  if (p.size() < 2) return std::nullopt;
  StatusPayload status;
  status.code = get_u16(p, 0);
  status.message.assign(reinterpret_cast<const char*>(p.data()) + 2, p.size() - 2);
  return status;
}

std::vector<std::uint8_t> encode_result(const ResultPayload& result) {
  std::vector<std::uint8_t> out;
  out.reserve(48 + result.features.size() * 8);
  out.push_back(result.usable ? 1 : 0);
  out.push_back(result.degraded ? 1 : 0);
  out.push_back(result.has_diagnosis ? 1 : 0);
  out.push_back(result.state);
  put_u32(out, result.events);
  put_u32(out, result.echoes);
  put_u32(out, static_cast<std::uint32_t>(result.features.size()));
  put_u64(out, result.model_version);
  put_f64(out, result.confidence);
  put_f64(out, result.queue_ms);
  put_f64(out, result.total_ms);
  for (const double f : result.features) put_f64(out, f);
  return out;
}

std::optional<ResultPayload> decode_result(std::span<const std::uint8_t> p) {
  constexpr std::size_t kFixed = 48;
  if (p.size() < kFixed) return std::nullopt;
  ResultPayload result;
  if (p[0] > 1 || p[1] > 1 || p[2] > 1) return std::nullopt;
  result.usable = p[0] != 0;
  result.degraded = p[1] != 0;
  result.has_diagnosis = p[2] != 0;
  result.state = p[3];
  result.events = get_u32(p, 4);
  result.echoes = get_u32(p, 8);
  const std::uint32_t feature_count = get_u32(p, 12);
  result.model_version = get_u64(p, 16);
  result.confidence = get_f64(p, 24);
  result.queue_ms = get_f64(p, 32);
  result.total_ms = get_f64(p, 40);
  if (p.size() != kFixed + std::size_t{feature_count} * 8) return std::nullopt;
  result.features.resize(feature_count);
  for (std::uint32_t i = 0; i < feature_count; ++i)
    result.features[i] = get_f64(p, kFixed + std::size_t{i} * 8);
  return result;
}

std::vector<std::uint8_t> encode_stats(const StatsPayload& stats) {
  std::vector<std::uint8_t> out;
  out.reserve(4 + stats.shards.size() * 96);
  put_u32(out, static_cast<std::uint32_t>(stats.shards.size()));
  for (const ShardStatsWire& s : stats.shards) {
    put_u64(out, s.accepted);
    put_u64(out, s.completed);
    put_u64(out, s.rejected_queue_full);
    put_u64(out, s.deadline_exceeded);
    put_u64(out, s.degraded);
    put_u64(out, s.failed);
    put_u64(out, s.chunks_fed);
    put_u64(out, s.sessions_active);
    put_u64(out, s.sessions_rejected);
    put_u64(out, s.health);
    put_u64(out, s.epoch);
    put_u64(out, s.restarts);
  }
  return out;
}

std::optional<StatsPayload> decode_stats(std::span<const std::uint8_t> p) {
  constexpr std::size_t kPerShard = 96;
  if (p.size() < 4) return std::nullopt;
  const std::uint32_t count = get_u32(p, 0);
  if (p.size() != 4 + std::size_t{count} * kPerShard) return std::nullopt;
  StatsPayload stats;
  stats.shards.resize(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::size_t at = 4 + std::size_t{i} * kPerShard;
    ShardStatsWire& s = stats.shards[i];
    s.accepted = get_u64(p, at);
    s.completed = get_u64(p, at + 8);
    s.rejected_queue_full = get_u64(p, at + 16);
    s.deadline_exceeded = get_u64(p, at + 24);
    s.degraded = get_u64(p, at + 32);
    s.failed = get_u64(p, at + 40);
    s.chunks_fed = get_u64(p, at + 48);
    s.sessions_active = get_u64(p, at + 56);
    s.sessions_rejected = get_u64(p, at + 64);
    s.health = get_u64(p, at + 72);
    s.epoch = get_u64(p, at + 80);
    s.restarts = get_u64(p, at + 88);
  }
  return stats;
}

std::vector<std::uint8_t> encode_admin(const AdminPayload& admin) {
  std::vector<std::uint8_t> out;
  out.reserve(8);
  out.push_back(static_cast<std::uint8_t>(admin.op));
  out.push_back(0);
  out.push_back(0);
  out.push_back(0);
  put_u32(out, admin.shard);
  return out;
}

std::optional<AdminPayload> decode_admin(std::span<const std::uint8_t> p) {
  if (p.size() != 8) return std::nullopt;
  const std::uint8_t op = p[0];
  if (op < static_cast<std::uint8_t>(AdminOp::kAddShard) ||
      op > static_cast<std::uint8_t>(AdminOp::kHealth))
    return std::nullopt;
  if (p[1] != 0 || p[2] != 0 || p[3] != 0) return std::nullopt;
  AdminPayload admin;
  admin.op = static_cast<AdminOp>(op);
  admin.shard = get_u32(p, 4);
  return admin;
}

std::vector<std::uint8_t> encode_admin_reply(const AdminReplyPayload& reply) {
  constexpr std::size_t kPerShard = 24;
  std::vector<std::uint8_t> out;
  out.reserve(2 + 4 + reply.message.size() + 4 + reply.shards.size() * kPerShard);
  put_u16(out, reply.code);
  put_u32(out, static_cast<std::uint32_t>(reply.message.size()));
  out.insert(out.end(), reply.message.begin(), reply.message.end());
  put_u32(out, static_cast<std::uint32_t>(reply.shards.size()));
  for (const ShardHealthWire& s : reply.shards) {
    put_u32(out, s.slot);
    out.push_back(s.health);
    out.push_back(s.in_ring);
    put_u16(out, 0);  // pad to 8-byte record alignment
    put_u64(out, s.epoch);
    put_u64(out, s.restarts);
  }
  return out;
}

std::optional<AdminReplyPayload> decode_admin_reply(std::span<const std::uint8_t> p) {
  constexpr std::size_t kPerShard = 24;
  if (p.size() < 6) return std::nullopt;
  AdminReplyPayload reply;
  reply.code = get_u16(p, 0);
  const std::uint32_t msg_len = get_u32(p, 2);
  if (p.size() < 6 + std::size_t{msg_len} + 4) return std::nullopt;
  reply.message.assign(reinterpret_cast<const char*>(p.data()) + 6, msg_len);
  const std::size_t at_count = 6 + std::size_t{msg_len};
  const std::uint32_t count = get_u32(p, at_count);
  if (p.size() != at_count + 4 + std::size_t{count} * kPerShard) return std::nullopt;
  reply.shards.resize(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::size_t at = at_count + 4 + std::size_t{i} * kPerShard;
    ShardHealthWire& s = reply.shards[i];
    s.slot = get_u32(p, at);
    s.health = p[at + 4];
    s.in_ring = p[at + 5];
    if (get_u16(p, at + 6) != 0) return std::nullopt;
    s.epoch = get_u64(p, at + 8);
    s.restarts = get_u64(p, at + 16);
  }
  return reply;
}

}  // namespace earsonar::net
