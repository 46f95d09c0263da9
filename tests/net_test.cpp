// Networked front-end tests: wire codec, consistent-hash sharding, loopback
// end-to-end equivalence with the in-process pipeline, layered admission
// control, malformed-input handling, and fault injection. Built with the
// `net` ctest label so the suite runs under ASan/UBSan and TSan in
// scripts/check_sanitize.sh.
#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/fault.hpp"
#include "common/rng.hpp"
#include "core/model_io.hpp"
#include "core/pipeline.hpp"
#include "dsp/simd.hpp"
#include "net/client.hpp"
#include "net/frame.hpp"
#include "net/loadgen.hpp"
#include "net/server.hpp"
#include "net/shard.hpp"
#include "net/socket.hpp"
#include "sim/probe.hpp"
#include "sim/subject.hpp"

namespace earsonar {
namespace {

audio::Waveform test_recording(std::uint64_t seed = 7) {
  sim::SubjectFactory factory(42);
  sim::ProbeConfig pc;
  pc.chirp_count = 10;
  sim::EarProbe probe(pc);
  Rng rng(seed);
  return probe.record_state(factory.make(0), sim::EffusionState::kClear,
                            sim::reference_earphone(), {}, rng);
}

core::PipelineConfig causal_config() {
  core::PipelineConfig cfg;
  cfg.preprocess.zero_phase = false;
  return cfg;
}

core::DetectorModel tiny_model() {
  core::DetectorModel model;
  const std::size_t dim = core::EarSonar(causal_config()).feature_dimension();
  model.scaler_mean.assign(dim, 0.0);
  model.scaler_std.assign(dim, 1.0);
  model.selected_features = {0, 1};
  model.centroids = {{-1.0, -1.0}, {1.0, 1.0}};
  model.cluster_to_state = {0, 2};
  return model;
}

net::NetServerConfig small_server_config(std::size_t shards) {
  net::NetServerConfig cfg;
  cfg.port = 0;  // ephemeral
  cfg.shards.shards = shards;
  cfg.shards.engine.workers = 1;
  cfg.shards.engine.session.pipeline = causal_config();
  return cfg;
}

// --------------------------------------------------------------- frame codec

TEST(FrameCodecTest, Crc32KnownVector) {
  const char* msg = "123456789";
  EXPECT_EQ(net::crc32({reinterpret_cast<const std::uint8_t*>(msg), 9}),
            0xCBF43926u);
  EXPECT_EQ(net::crc32({}), 0u);
}

// Bit-at-a-time CRC-32 straight from the polynomial: the reference both
// dispatch paths of net::crc32 must reproduce.
std::uint32_t crc32_bitwise(std::span<const std::uint8_t> bytes, std::uint32_t seed) {
  std::uint32_t c = ~seed;
  for (const std::uint8_t b : bytes) {
    c ^= b;
    for (int k = 0; k < 8; ++k) c = (c & 1u) ? (c >> 1) ^ 0xEDB88320u : c >> 1;
  }
  return ~c;
}

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint8_t> out(n);
  for (std::uint8_t& b : out) b = static_cast<std::uint8_t>(rng.next_u64());
  return out;
}

constexpr dsp::simd::Level kCrcLevels[] = {dsp::simd::Level::kScalar,
                                           dsp::simd::Level::kNative};
constexpr std::uint32_t kCrcSeeds[] = {0u, 0x9E3779B9u};

TEST(FrameCodecTest, Crc32PathsMatchBitwiseReferenceAtEveryLengthAndOffset) {
  const std::vector<std::uint8_t> buf = random_bytes(300 + 16, 3);
  for (const std::uint32_t seed : kCrcSeeds)
    for (std::size_t offset = 0; offset < 16; ++offset)
      for (std::size_t len = 0; len <= 300; ++len) {
        const std::span<const std::uint8_t> bytes(buf.data() + offset, len);
        const std::uint32_t want = crc32_bitwise(bytes, seed);
        for (const dsp::simd::Level level : kCrcLevels)
          ASSERT_EQ(net::crc32(bytes, seed, level), want)
              << "level " << static_cast<int>(level) << " offset " << offset
              << " len " << len << " seed " << seed;
      }
}

TEST(FrameCodecTest, Crc32PathsMatchBitwiseReferenceOnLargeBuffers) {
  for (const std::size_t n : {std::size_t{38400}, std::size_t{1} << 20}) {
    const std::vector<std::uint8_t> buf = random_bytes(n, n);
    for (const std::uint32_t seed : kCrcSeeds) {
      const std::uint32_t want = crc32_bitwise(buf, seed);
      for (const dsp::simd::Level level : kCrcLevels)
        EXPECT_EQ(net::crc32(buf, seed, level), want) << "n " << n << " seed " << seed;
      EXPECT_EQ(net::crc32(buf, seed), want);  // the dispatched path
    }
  }
}

TEST(FrameCodecTest, Crc32ChainsAtEverySplitPoint) {
  const std::vector<std::uint8_t> buf = random_bytes(1000, 5);
  const std::span<const std::uint8_t> all(buf);
  for (const dsp::simd::Level level : kCrcLevels) {
    const std::uint32_t whole = net::crc32(all, 0, level);
    for (std::size_t split = 0; split <= all.size(); ++split)
      ASSERT_EQ(net::crc32(all.subspan(split), net::crc32(all.first(split), 0, level),
                           level),
                whole)
          << "level " << static_cast<int>(level) << " split " << split;
  }
}

TEST(FrameCodecTest, EverySingleBitFlipInAChunkPayloadIsBadCrc) {
  // One 4,800-sample chunk of audio, the size a client sends per frame.
  const std::vector<std::uint8_t> payload = random_bytes(38400, 9);
  std::vector<std::uint8_t> wire = net::encode_frame(net::FrameType::kChunk, 3, payload);
  for (std::size_t byte = net::kHeaderSize; byte < wire.size(); ++byte)
    for (int bit = 0; bit < 8; ++bit) {
      const auto mask = static_cast<std::uint8_t>(1u << bit);
      wire[byte] ^= mask;
      net::FrameDecoder decoder;
      decoder.push(wire);
      ASSERT_FALSE(decoder.next().has_value()) << "byte " << byte << " bit " << bit;
      ASSERT_EQ(decoder.error(), net::DecodeStatus::kBadCrc)
          << "byte " << byte << " bit " << bit;
      wire[byte] ^= mask;
    }
  net::FrameDecoder decoder;
  decoder.push(wire);
  EXPECT_TRUE(decoder.next().has_value());
}

TEST(FrameCodecTest, FrameRoundTrip) {
  const std::vector<std::uint8_t> payload = {1, 2, 3, 4, 5};
  const std::vector<std::uint8_t> wire =
      net::encode_frame(net::FrameType::kPing, 42, payload);
  ASSERT_EQ(wire.size(), net::kHeaderSize + payload.size());

  net::FrameDecoder decoder;
  decoder.push(wire);
  const std::optional<net::Frame> frame = decoder.next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->header.type, net::FrameType::kPing);
  EXPECT_EQ(frame->header.session_id, 42u);
  EXPECT_EQ(frame->payload, payload);
  EXPECT_FALSE(decoder.next().has_value());
  EXPECT_FALSE(decoder.poisoned());
}

TEST(FrameCodecTest, PayloadStructsRoundTrip) {
  net::HelloPayload hello{44100.0, 250.0};
  const auto hello2 = net::decode_hello(net::encode_hello(hello));
  ASSERT_TRUE(hello2.has_value());
  EXPECT_EQ(hello2->sample_rate, 44100.0);
  EXPECT_EQ(hello2->deadline_ms, 250.0);

  net::HelloAckPayload ack{3, 48000.0};
  const auto ack2 = net::decode_hello_ack(net::encode_hello_ack(ack));
  ASSERT_TRUE(ack2.has_value());
  EXPECT_EQ(ack2->shard, 3u);
  EXPECT_EQ(ack2->sample_rate, 48000.0);

  const auto status = net::decode_status(net::encode_status(7, "queue full"));
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(status->code, 7u);
  EXPECT_EQ(status->message, "queue full");

  net::ResultPayload result;
  result.usable = true;
  result.degraded = true;
  result.has_diagnosis = true;
  result.state = 2;
  result.confidence = 0.75;
  result.events = 9;
  result.echoes = 4;
  result.model_version = 11;
  result.queue_ms = 0.5;
  result.total_ms = 12.25;
  result.features = {1.0, -2.5, 3.25e-17, 0.0};
  const auto result2 = net::decode_result(net::encode_result(result));
  ASSERT_TRUE(result2.has_value());
  EXPECT_EQ(result2->state, 2u);
  EXPECT_EQ(result2->model_version, 11u);
  ASSERT_EQ(result2->features.size(), result.features.size());
  for (std::size_t i = 0; i < result.features.size(); ++i)
    EXPECT_EQ(result2->features[i], result.features[i]);  // exact bits

  net::StatsPayload stats;
  stats.shards.resize(2);
  stats.shards[0].accepted = 100;
  stats.shards[1].sessions_rejected = 3;
  const auto stats2 = net::decode_stats(net::encode_stats(stats));
  ASSERT_TRUE(stats2.has_value());
  ASSERT_EQ(stats2->shards.size(), 2u);
  EXPECT_EQ(stats2->shards[0].accepted, 100u);
  EXPECT_EQ(stats2->shards[1].sessions_rejected, 3u);
}

TEST(FrameCodecTest, DecoderHandlesOneByteAtATime) {
  const std::vector<std::uint8_t> wire =
      net::encode_frame(net::FrameType::kFinish, 9, {});
  net::FrameDecoder decoder;
  std::optional<net::Frame> frame;
  for (const std::uint8_t byte : wire) {
    decoder.push({&byte, 1});
    if (auto got = decoder.next()) frame = std::move(got);
  }
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->header.type, net::FrameType::kFinish);
  EXPECT_EQ(decoder.pending_bytes(), 0u);
}

TEST(FrameCodecTest, TruncatedFrameIsNeedMoreNotPoison) {
  const std::vector<std::uint8_t> body = {9, 9, 9};
  const std::vector<std::uint8_t> wire =
      net::encode_frame(net::FrameType::kPing, 1, body);
  net::FrameDecoder decoder;
  decoder.push({wire.data(), wire.size() - 1});
  EXPECT_FALSE(decoder.next().has_value());
  EXPECT_FALSE(decoder.poisoned());
  decoder.push({wire.data() + wire.size() - 1, 1});
  EXPECT_TRUE(decoder.next().has_value());
}

TEST(FrameCodecTest, DecoderPoisonsOnMalformedBytes) {
  struct Case {
    std::size_t offset;
    std::uint8_t value;
    net::DecodeStatus expected;
  };
  const std::vector<std::uint8_t> body = {1, 2, 3};
  const std::vector<std::uint8_t> good =
      net::encode_frame(net::FrameType::kPing, 5, body);
  const Case cases[] = {
      {0, 0xFF, net::DecodeStatus::kBadMagic},
      {2, 0x7F, net::DecodeStatus::kBadVersion},
      {3, 0xEE, net::DecodeStatus::kBadType},
      {16, 0x01, net::DecodeStatus::kBadReserved},
      {net::kHeaderSize + 1, 0x44, net::DecodeStatus::kBadCrc},
  };
  for (const Case& c : cases) {
    std::vector<std::uint8_t> bad = good;
    bad[c.offset] = c.value;
    net::FrameDecoder decoder;
    decoder.push(bad);
    EXPECT_FALSE(decoder.next().has_value());
    EXPECT_TRUE(decoder.poisoned());
    EXPECT_EQ(decoder.error(), c.expected);
    // A poisoned decoder stays poisoned: further pushes yield nothing.
    decoder.push(good);
    EXPECT_FALSE(decoder.next().has_value());
  }
}

TEST(FrameCodecTest, OversizedLengthRejected) {
  std::vector<std::uint8_t> bad = net::encode_frame(net::FrameType::kPing, 1, {});
  const std::uint32_t huge = static_cast<std::uint32_t>(net::kMaxPayload) + 1;
  std::memcpy(bad.data() + 4, &huge, sizeof huge);  // little-endian host
  net::FrameDecoder decoder;
  decoder.push(bad);
  EXPECT_FALSE(decoder.next().has_value());
  EXPECT_EQ(decoder.error(), net::DecodeStatus::kBadLength);
}

TEST(FrameCodecTest, TypedDecodersRejectTruncation) {
  const auto result = net::encode_result(net::ResultPayload{});
  EXPECT_FALSE(
      net::decode_result({result.data(), result.size() - 1}).has_value());
  // Hello is 16 bytes. A 17th byte of 0 is what older clients append and
  // still decodes; any other 17th byte, or a shorter payload, is refused.
  net::HelloPayload hello_in;
  hello_in.sample_rate = 44100.0;
  hello_in.deadline_ms = 250.0;
  auto hello = net::encode_hello(hello_in);
  ASSERT_EQ(hello.size(), 16u);
  const auto decoded = net::decode_hello(hello);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->sample_rate, 44100.0);
  EXPECT_EQ(decoded->deadline_ms, 250.0);
  EXPECT_FALSE(net::decode_hello({hello.data(), 15}).has_value());
  hello.push_back(0);
  const auto padded = net::decode_hello(hello);
  ASSERT_TRUE(padded.has_value());
  EXPECT_EQ(padded->sample_rate, 44100.0);
  EXPECT_EQ(padded->deadline_ms, 250.0);
  hello.back() = 1;
  EXPECT_FALSE(net::decode_hello(hello).has_value());
  hello.push_back(0);
  EXPECT_FALSE(net::decode_hello(hello).has_value());
  EXPECT_FALSE(net::decode_stats(std::span<const std::uint8_t>{}).has_value());
}

// ----------------------------------------------------------------- hash ring

TEST(HashRingTest, AffinityIsDeterministic) {
  const net::HashRing ring(4);
  for (std::uint64_t id = 1; id <= 100; ++id)
    EXPECT_EQ(ring.shard_for(id), ring.shard_for(id));
  const net::HashRing same(4);
  for (std::uint64_t id = 1; id <= 100; ++id)
    EXPECT_EQ(ring.shard_for(id), same.shard_for(id));
}

TEST(HashRingTest, BalancesAcrossShards) {
  const std::size_t shards = 4;
  const net::HashRing ring(shards);
  std::vector<std::size_t> counts(shards, 0);
  const std::size_t keys = 4000;
  for (std::uint64_t id = 1; id <= keys; ++id) ++counts[ring.shard_for(id)];
  for (std::size_t s = 0; s < shards; ++s) {
    // Fair share is 25%; 64 virtual nodes keep every shard within a loose
    // band around it.
    EXPECT_GT(counts[s], keys / 8) << "shard " << s << " starved";
    EXPECT_LT(counts[s], keys / 2) << "shard " << s << " overloaded";
  }
}

// Regression: ring points used to be hashed from the same domain as session
// ids, so ids 0..63 landed exactly on shard 0's points and every small id
// mapped to shard 0.
TEST(HashRingTest, SequentialSmallIdsSpread) {
  const net::HashRing ring(2);
  std::set<std::size_t> hit;
  for (std::uint64_t id = 1; id <= 64; ++id) hit.insert(ring.shard_for(id));
  EXPECT_EQ(hit.size(), 2u);
}

TEST(HashRingTest, ResizeRemapsMinimally) {
  const std::size_t keys = 2000;
  const net::HashRing before(4);
  const net::HashRing after(5);
  std::size_t moved = 0;
  for (std::uint64_t id = 1; id <= keys; ++id) {
    const std::size_t from = before.shard_for(id);
    const std::size_t to = after.shard_for(id);
    if (from != to) {
      // Consistent hashing only ever moves keys *onto* the new shard;
      // nothing shuffles between surviving shards.
      EXPECT_EQ(to, 4u) << "key " << id << " moved between old shards";
      ++moved;
    }
  }
  // Expected fraction is 1/5; modulo sharding would move ~4/5.
  EXPECT_GT(moved, 0u);
  EXPECT_LT(static_cast<double>(moved) / keys, 0.40);
}

// Live membership ops must be equivalent to building the ring at the target
// size: add_shard(4) on a 4-shard ring maps every key exactly as a fresh
// 5-shard ring does, only keys landing on the newcomer moved, and removing
// it restores the original mapping bit for bit.
TEST(HashRingTest, LiveAddAndRemoveAreMinimalAndExact) {
  const std::size_t keys = 2000;
  const net::HashRing fresh4(4);
  const net::HashRing fresh5(5);
  net::HashRing live(4);

  live.add_shard(4);
  EXPECT_TRUE(live.contains(4));
  EXPECT_EQ(live.shard_count(), 5u);
  std::size_t moved = 0;
  for (std::uint64_t id = 1; id <= keys; ++id) {
    EXPECT_EQ(live.shard_for(id), fresh5.shard_for(id)) << "key " << id;
    const std::size_t from = fresh4.shard_for(id);
    const std::size_t to = live.shard_for(id);
    if (from != to) {
      EXPECT_EQ(to, 4u) << "key " << id << " moved between old shards";
      ++moved;
    }
  }
  EXPECT_GT(moved, 0u);
  EXPECT_LT(static_cast<double>(moved) / keys, 0.40);

  live.remove_shard(4);
  EXPECT_FALSE(live.contains(4));
  EXPECT_EQ(live.shard_count(), 4u);
  for (std::uint64_t id = 1; id <= keys; ++id)
    EXPECT_EQ(live.shard_for(id), fresh4.shard_for(id))
        << "key " << id << " did not return home after remove";
  // Idempotence: re-adding and re-removing are no-ops on a member/non-member.
  live.add_shard(2);
  EXPECT_EQ(live.shard_count(), 4u);
  live.remove_shard(4);
  EXPECT_EQ(live.shard_count(), 4u);
}

// ---------------------------------------------------------------- shard pool

TEST(ShardPoolTest, SessionSlotsAreBoundedAndReleasable) {
  net::ShardConfig cfg;
  cfg.shards = 1;
  cfg.max_sessions_per_shard = 2;
  cfg.engine.workers = 1;
  cfg.engine.session.pipeline = causal_config();
  net::ShardPool pool(cfg);
  pool.start();
  std::size_t shard = 99;
  EXPECT_EQ(pool.admit_session(1, &shard), net::Admission::kAdmitted);
  EXPECT_EQ(shard, 0u);
  EXPECT_EQ(pool.admit_session(2, &shard), net::Admission::kAdmitted);
  EXPECT_EQ(pool.admit_session(3, &shard), net::Admission::kSessionsFull);
  EXPECT_EQ(pool.sessions_active(0), 2);
  pool.release_session(0);
  EXPECT_EQ(pool.admit_session(3, &shard), net::Admission::kAdmitted);
  pool.stop();
  EXPECT_EQ(pool.admit_session(4, &shard), net::Admission::kStopped);
}

TEST(ShardPoolTest, DispatchFaultIsExplicit) {
  net::ShardConfig cfg;
  cfg.shards = 1;
  cfg.engine.workers = 1;
  cfg.engine.session.pipeline = causal_config();
  net::ShardPool pool(cfg);
  pool.start();
  fault::ScopedFault guard("net.shard.dispatch=always");
  std::size_t shard = 0;
  EXPECT_EQ(pool.admit_session(1, &shard), net::Admission::kDispatchFault);
  EXPECT_EQ(pool.stats().shards[0].sessions_rejected, 1u);
}

// -------------------------------------------------------------- loopback e2e

TEST(NetLoopbackTest, BitIdenticalToInProcessAnalyzeAtEveryChunkSize) {
  const audio::Waveform recording = test_recording();
  core::EarSonar batch(causal_config());
  const core::EchoAnalysis reference = batch.analyze(recording);
  ASSERT_TRUE(reference.usable());
  const core::DetectorModel model = tiny_model();
  const core::Diagnosis expected = model.predict(reference.features);

  net::NetServer server(small_server_config(2));
  server.shards().install_model(model, "test");
  server.start();

  net::NetClient client("127.0.0.1", server.port());
  const std::size_t sizes[] = {64, 480, 4800, recording.size()};
  std::uint64_t session_id = 1;
  for (const std::size_t chunk : sizes) {
    net::SessionOptions options;
    options.session_id = session_id++;
    options.chunk_samples = chunk;
    const net::SessionOutcome outcome = client.run_session(recording, options);
    ASSERT_EQ(outcome.kind, net::SessionOutcome::Kind::kResult)
        << "chunk " << chunk << ": " << outcome.message;
    EXPECT_TRUE(outcome.admitted);
    const net::ResultPayload& result = outcome.result;
    EXPECT_TRUE(result.usable);
    ASSERT_EQ(result.features.size(), reference.features.size());
    for (std::size_t i = 0; i < reference.features.size(); ++i)
      EXPECT_EQ(result.features[i], reference.features[i])
          << "feature " << i << " differs at chunk size " << chunk;
    ASSERT_TRUE(result.has_diagnosis);
    EXPECT_EQ(result.state, expected.state);
    EXPECT_EQ(result.confidence, expected.confidence);
    EXPECT_EQ(result.model_version, 1u);
  }
  server.stop();
}

// The bit-identity contract must survive a *live resize*: sessions answered
// after an admin add-shard (and after a graceful drain) still produce the
// exact features of the in-process analyze() — lifecycle churn may move
// keys, never perturb the math.
TEST(NetLoopbackTest, BitIdenticalSurvivesMidRunResize) {
  const audio::Waveform recording = test_recording();
  core::EarSonar batch(causal_config());
  const core::EchoAnalysis reference = batch.analyze(recording);
  ASSERT_TRUE(reference.usable());

  net::NetServerConfig cfg = small_server_config(2);
  cfg.enable_admin = true;
  net::NetServer server(cfg);
  server.shards().install_model(tiny_model(), "test");
  server.start();

  net::NetClient client("127.0.0.1", server.port());
  const auto run_and_check = [&](std::uint64_t sid) {
    net::SessionOptions options;
    options.session_id = sid;
    const net::SessionOutcome outcome = client.run_session(recording, options);
    ASSERT_EQ(outcome.kind, net::SessionOutcome::Kind::kResult)
        << "session " << sid << ": " << outcome.message;
    ASSERT_EQ(outcome.result.features.size(), reference.features.size());
    for (std::size_t i = 0; i < reference.features.size(); ++i)
      EXPECT_EQ(outcome.result.features[i], reference.features[i])
          << "feature " << i << " differs in session " << sid;
  };
  for (std::uint64_t sid = 1; sid <= 4; ++sid)
    ASSERT_NO_FATAL_FAILURE(run_and_check(sid));

  // Grow the pool by one shard over the wire (session-0 Admin frame).
  const std::optional<net::AdminReplyPayload> grown =
      client.admin(net::AdminOp::kAddShard);
  ASSERT_TRUE(grown.has_value());
  EXPECT_EQ(grown->code, 0) << grown->message;
  EXPECT_EQ(server.shards().ring_members(), 3u);
  // Session ids chosen to land across the ring, including the newcomer.
  for (std::uint64_t sid = 100; sid <= 120; ++sid)
    ASSERT_NO_FATAL_FAILURE(run_and_check(sid));

  // Drain one of the original shards; later sessions remap and still match.
  const std::optional<net::AdminReplyPayload> drained =
      client.admin(net::AdminOp::kDrainShard, 0);
  ASSERT_TRUE(drained.has_value());
  EXPECT_EQ(drained->code, 0) << drained->message;
  EXPECT_EQ(server.shards().ring_members(), 2u);
  for (std::uint64_t sid = 200; sid <= 220; ++sid)
    ASSERT_NO_FATAL_FAILURE(run_and_check(sid));
  server.stop();
}

TEST(NetLoopbackTest, PingEchoesAndStatsCount) {
  net::NetServer server(small_server_config(2));
  server.shards().install_model(tiny_model(), "test");
  server.start();
  net::NetClient client("127.0.0.1", server.port());

  const std::optional<double> rtt = client.ping(256);
  ASSERT_TRUE(rtt.has_value());
  EXPECT_GE(*rtt, 0.0);

  net::SessionOptions options;
  options.session_id = 77;
  const net::SessionOutcome outcome =
      client.run_session(test_recording(), options);
  ASSERT_EQ(outcome.kind, net::SessionOutcome::Kind::kResult);

  const std::optional<net::StatsPayload> stats = client.fetch_stats();
  ASSERT_TRUE(stats.has_value());
  ASSERT_EQ(stats->shards.size(), 2u);
  std::uint64_t accepted = 0;
  std::uint64_t chunks = 0;
  for (const net::ShardStatsWire& shard : stats->shards) {
    accepted += shard.accepted;
    chunks += shard.chunks_fed;
  }
  EXPECT_EQ(accepted, 1u);
  EXPECT_GT(chunks, 0u);
  server.stop();
}

TEST(NetLoopbackTest, MaxPayloadPingReturnsByteIdenticalPong) {
  // write_frame sends header and payload in one gathered write; the largest
  // frame the protocol allows must still arrive whole and intact.
  net::NetServer server(small_server_config(1));
  server.start();
  net::NetClient client("127.0.0.1", server.port());
  // ping() returns nullopt unless the Pong payload matches byte for byte.
  EXPECT_TRUE(client.ping(net::kMaxPayload).has_value());
  EXPECT_TRUE(client.ping(0).has_value());
  server.stop();
}

TEST(NetLoopbackTest, WrongSampleRateGetsExplicitError) {
  net::NetServer server(small_server_config(1));
  server.start();
  net::NetClient client("127.0.0.1", server.port());
  client.set_expected_rate(22050.0);  // misconfigured client
  net::SessionOptions options;
  options.session_id = 5;
  const net::SessionOutcome outcome =
      client.run_session(test_recording(), options);
  EXPECT_EQ(outcome.kind, net::SessionOutcome::Kind::kError);
  EXPECT_EQ(outcome.code,
            static_cast<std::uint16_t>(net::ErrorCode::kUnsupportedRate));
  server.stop();
}

TEST(NetLoopbackTest, SessionSlotOverloadRejectsExplicitlyAndRecovers) {
  net::NetServerConfig cfg = small_server_config(1);
  cfg.shards.max_sessions_per_shard = 1;
  net::NetServer server(cfg);
  server.shards().install_model(tiny_model(), "test");
  server.start();

  // Hold the only slot open with raw frames on one connection...
  net::TcpStream holder = net::TcpStream::connect("127.0.0.1", server.port());
  std::vector<double> arena;
  net::write_frame(holder, net::FrameType::kHello, 1,
                   net::encode_hello({48000.0, 0.0}));
  net::ReadFrameResult read = net::read_frame(holder, arena);
  ASSERT_EQ(read.kind, net::ReadFrameResult::Kind::kFrame);
  ASSERT_EQ(read.header.type, net::FrameType::kHelloAck);

  // ...so a second session is refused with an explicit reason frame.
  net::NetClient second("127.0.0.1", server.port());
  net::SessionOptions options;
  options.session_id = 2;
  const net::SessionOutcome rejected =
      second.run_session(test_recording(), options);
  EXPECT_EQ(rejected.kind, net::SessionOutcome::Kind::kRejected);
  EXPECT_EQ(rejected.code,
            static_cast<std::uint16_t>(net::RejectCode::kShardSessionsFull));

  // The holder finishes; its slot frees and the next session completes.
  const audio::Waveform recording = test_recording();
  net::write_chunk_frame(holder, 1, recording.view());
  net::write_frame(holder, net::FrameType::kFinish, 1, {});
  read = net::read_frame(holder, arena);
  ASSERT_EQ(read.kind, net::ReadFrameResult::Kind::kFrame);
  EXPECT_EQ(read.header.type, net::FrameType::kResult);

  options.session_id = 3;
  const net::SessionOutcome after = second.run_session(recording, options);
  EXPECT_EQ(after.kind, net::SessionOutcome::Kind::kResult);

  // Accounting: every attempt is visible — nothing silently dropped.
  const std::optional<net::StatsPayload> stats = second.fetch_stats();
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->shards[0].accepted, 2u);
  EXPECT_EQ(stats->shards[0].sessions_rejected, 1u);
  server.stop();
}

TEST(NetLoopbackTest, MalformedBytesGetErrorFrameAndServerSurvives) {
  net::NetServer server(small_server_config(1));
  server.shards().install_model(tiny_model(), "test");
  server.start();

  net::TcpStream garbage = net::TcpStream::connect("127.0.0.1", server.port());
  std::array<std::uint8_t, 64> junk;
  for (std::size_t i = 0; i < junk.size(); ++i)
    junk[i] = static_cast<std::uint8_t>(i * 37 + 11);
  garbage.write_all(junk);
  std::vector<double> arena;
  const net::ReadFrameResult read = net::read_frame(garbage, arena);
  ASSERT_EQ(read.kind, net::ReadFrameResult::Kind::kFrame);
  EXPECT_EQ(read.header.type, net::FrameType::kError);
  const auto status =
      net::decode_status(net::payload_bytes(arena, read.header));
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(status->code, static_cast<std::uint16_t>(net::ErrorCode::kBadFrame));
  EXPECT_EQ(server.stats().frames_malformed.load(), 1u);

  // The poisoned connection died; the server keeps serving new ones.
  net::NetClient client("127.0.0.1", server.port());
  net::SessionOptions options;
  options.session_id = 9;
  EXPECT_EQ(client.run_session(test_recording(), options).kind,
            net::SessionOutcome::Kind::kResult);
  server.stop();
}

TEST(NetLoopbackTest, ChunkForUnknownSessionIsProtocolError) {
  net::NetServer server(small_server_config(1));
  server.start();
  net::TcpStream stream = net::TcpStream::connect("127.0.0.1", server.port());
  const double samples[4] = {0.0, 0.1, -0.1, 0.0};
  net::write_chunk_frame(stream, 1234, samples);
  std::vector<double> arena;
  const net::ReadFrameResult read = net::read_frame(stream, arena);
  ASSERT_EQ(read.kind, net::ReadFrameResult::Kind::kFrame);
  EXPECT_EQ(read.header.type, net::FrameType::kError);
  const auto status =
      net::decode_status(net::payload_bytes(arena, read.header));
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(status->code, static_cast<std::uint16_t>(net::ErrorCode::kProtocol));
  server.stop();
}

// Per-frame refusals on one raw connection. Each answers with exactly one
// Error frame carrying the documented code and keeps the connection: the
// frame after it is the Pong to a Ping sent next. None holds a session slot
// afterwards, and a good session on the same server still gets its Result.
class NetRefusalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    net::NetServerConfig cfg = small_server_config(1);
    // Room for exactly one test recording per session.
    cfg.shards.engine.session.max_buffered_samples = recording_.size();
    server_ = std::make_unique<net::NetServer>(cfg);
    server_->shards().install_model(tiny_model(), "test");
    server_->start();
    stream_ = net::TcpStream::connect("127.0.0.1", server_->port());
  }
  void TearDown() override { server_->stop(); }

  net::ReadFrameResult next_frame() { return net::read_frame(stream_, arena_); }

  void hello(std::uint64_t sid) {
    net::write_frame(stream_, net::FrameType::kHello, sid,
                     net::encode_hello({48000.0, 0.0}));
  }

  void open(std::uint64_t sid) {
    hello(sid);
    const net::ReadFrameResult read = next_frame();
    ASSERT_EQ(read.kind, net::ReadFrameResult::Kind::kFrame);
    ASSERT_EQ(read.header.type, net::FrameType::kHelloAck);
  }

  void expect_one_error(std::uint64_t sid, net::ErrorCode code) {
    net::ReadFrameResult read = next_frame();
    ASSERT_EQ(read.kind, net::ReadFrameResult::Kind::kFrame);
    ASSERT_EQ(read.header.type, net::FrameType::kError);
    EXPECT_EQ(read.header.session_id, sid);
    const auto status = net::decode_status(net::payload_bytes(arena_, read.header));
    ASSERT_TRUE(status.has_value());
    EXPECT_EQ(status->code, static_cast<std::uint16_t>(code)) << status->message;
    net::write_frame(stream_, net::FrameType::kPing, 0, {});
    read = next_frame();
    ASSERT_EQ(read.kind, net::ReadFrameResult::Kind::kFrame);
    EXPECT_EQ(read.header.type, net::FrameType::kPong);
  }

  void expect_server_clean() {
    EXPECT_EQ(server_->shards().sessions_active(0), 0);
    net::NetClient client("127.0.0.1", server_->port());
    net::SessionOptions options;
    options.session_id = 99;
    EXPECT_EQ(client.run_session(recording_, options).kind,
              net::SessionOutcome::Kind::kResult);
  }

  const audio::Waveform recording_ = test_recording();
  std::unique_ptr<net::NetServer> server_;
  net::TcpStream stream_;
  std::vector<double> arena_;
};

TEST_F(NetRefusalTest, ChunkPastSessionBufferIsStreamOverflow) {
  open(1);
  net::write_chunk_frame(stream_, 1, recording_.view());  // fills the buffer
  const double one[1] = {0.0};
  net::write_chunk_frame(stream_, 1, one);
  expect_one_error(1, net::ErrorCode::kStreamOverflow);
  EXPECT_EQ(server_->shards().engine(0)->metrics().chunks_refused.load(), 1u);
  expect_server_clean();
}

TEST_F(NetRefusalTest, ChunkLengthNotAMultipleOfEightIsBadFrame) {
  open(2);
  const std::uint8_t bytes[12] = {};
  net::write_frame(stream_, net::FrameType::kChunk, 2, bytes);
  expect_one_error(2, net::ErrorCode::kBadFrame);
  expect_server_clean();
}

TEST_F(NetRefusalTest, SecondHelloForAnOpenSessionIsProtocolError) {
  open(3);
  hello(3);
  expect_one_error(3, net::ErrorCode::kProtocol);
  // The open session is untouched: it still streams and gets its Result.
  EXPECT_EQ(server_->shards().sessions_active(0), 1);
  net::write_chunk_frame(stream_, 3, recording_.view());
  net::write_frame(stream_, net::FrameType::kFinish, 3, {});
  const net::ReadFrameResult read = next_frame();
  ASSERT_EQ(read.kind, net::ReadFrameResult::Kind::kFrame);
  EXPECT_EQ(read.header.type, net::FrameType::kResult);
  expect_server_clean();
}

TEST_F(NetRefusalTest, HelloForSessionZeroIsProtocolError) {
  hello(0);
  expect_one_error(0, net::ErrorCode::kProtocol);
  expect_server_clean();
}

TEST_F(NetRefusalTest, FinishForUnknownSessionIsProtocolError) {
  net::write_frame(stream_, net::FrameType::kFinish, 4, {});
  expect_one_error(4, net::ErrorCode::kProtocol);
  expect_server_clean();
}

TEST_F(NetRefusalTest, ServerToClientFrameTypesAreProtocolErrors) {
  for (net::FrameType type :
       {net::FrameType::kHelloAck, net::FrameType::kResult, net::FrameType::kReject,
        net::FrameType::kError, net::FrameType::kPong, net::FrameType::kStatsReply,
        net::FrameType::kAdminReply}) {
    SCOPED_TRACE(static_cast<int>(type));
    net::write_frame(stream_, type, 5, {});
    expect_one_error(5, net::ErrorCode::kProtocol);
  }
  expect_server_clean();
}

TEST(NetLoopbackTest, HelloWithNonzeroSeventeenthByteIsRefused) {
  net::NetServer server(small_server_config(1));
  server.shards().install_model(tiny_model(), "test");
  server.start();
  net::TcpStream stream = net::TcpStream::connect("127.0.0.1", server.port());
  std::vector<double> arena;

  // A 17th Hello byte other than 0 opens no session: the server answers
  // with a malformed-payload Error and keeps the connection.
  std::vector<std::uint8_t> tagged = net::encode_hello({48000.0, 0.0});
  tagged.push_back(1);
  net::write_frame(stream, net::FrameType::kHello, 1, tagged);
  net::ReadFrameResult read = net::read_frame(stream, arena);
  ASSERT_EQ(read.kind, net::ReadFrameResult::Kind::kFrame);
  EXPECT_EQ(read.header.type, net::FrameType::kError);
  EXPECT_EQ(read.header.session_id, 1u);
  const auto status = net::decode_status(net::payload_bytes(arena, read.header));
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(status->code, static_cast<std::uint16_t>(net::ErrorCode::kBadFrame));

  // A 16-byte Hello on the same connection still gets its Result.
  net::write_frame(stream, net::FrameType::kHello, 2,
                   net::encode_hello({48000.0, 0.0}));
  read = net::read_frame(stream, arena);
  ASSERT_EQ(read.kind, net::ReadFrameResult::Kind::kFrame);
  ASSERT_EQ(read.header.type, net::FrameType::kHelloAck);
  net::write_chunk_frame(stream, 2, test_recording().view());
  net::write_frame(stream, net::FrameType::kFinish, 2, {});
  read = net::read_frame(stream, arena);
  ASSERT_EQ(read.kind, net::ReadFrameResult::Kind::kFrame);
  EXPECT_EQ(read.header.type, net::FrameType::kResult);
  EXPECT_EQ(read.header.session_id, 2u);
  server.stop();
}

TEST(NetLoopbackTest, ConnectionCapRejectsExplicitly) {
  net::NetServerConfig cfg = small_server_config(1);
  cfg.max_connections = 1;
  net::NetServer server(cfg);
  server.start();

  net::NetClient first("127.0.0.1", server.port());
  ASSERT_TRUE(first.ping().has_value());  // connection 1 is live and counted

  net::TcpStream second = net::TcpStream::connect("127.0.0.1", server.port());
  std::vector<double> arena;
  const net::ReadFrameResult read = net::read_frame(second, arena);
  ASSERT_EQ(read.kind, net::ReadFrameResult::Kind::kFrame);
  EXPECT_EQ(read.header.type, net::FrameType::kReject);
  const auto status =
      net::decode_status(net::payload_bytes(arena, read.header));
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(status->code,
            static_cast<std::uint16_t>(net::RejectCode::kTooManyConnections));
  EXPECT_GE(server.stats().connections_rejected.load(), 1u);
  server.stop();
}

TEST(NetLoopbackTest, DeadlineExceededIsExplicit) {
  net::NetServerConfig cfg = small_server_config(1);
  net::NetServer server(cfg);
  server.shards().install_model(tiny_model(), "test");
  server.start();
  net::NetClient client("127.0.0.1", server.port());
  net::SessionOptions options;
  options.session_id = 4;
  options.deadline_ms = 1e-6;  // expires before the worker can dequeue
  const net::SessionOutcome outcome =
      client.run_session(test_recording(), options);
  EXPECT_EQ(outcome.kind, net::SessionOutcome::Kind::kError);
  EXPECT_EQ(outcome.code,
            static_cast<std::uint16_t>(net::ErrorCode::kDeadlineExceeded));
  server.stop();
}

// ------------------------------------------------------------ fault injection

TEST(NetFaultTest, AcceptFaultIsShruggedOff) {
  net::NetServer server(small_server_config(1));
  server.start();
  fault::ScopedFault guard("net.accept=nth:1");
  // The first accept attempt reports a transient failure; the kernel keeps
  // the connection in the backlog and the next poll round picks it up.
  net::NetClient client("127.0.0.1", server.port());
  EXPECT_TRUE(client.ping().has_value());
  server.stop();
}

TEST(NetFaultTest, FrameReadFaultKillsConnectionNotServer) {
  net::NetServer server(small_server_config(1));
  server.shards().install_model(tiny_model(), "test");
  server.start();
  {
    fault::ScopedFault guard("net.frame.read=nth:2");
    // Fault fires on the server's 2nd read (after Hello): the connection
    // dies, the client observes a transport failure — never a hang.
    net::NetClient doomed("127.0.0.1", server.port());
    net::SessionOptions options;
    options.session_id = 6;
    const net::SessionOutcome outcome =
        doomed.run_session(test_recording(), options);
    EXPECT_NE(outcome.kind, net::SessionOutcome::Kind::kResult);
  }
  // Abandoned slot was released; a fresh connection serves normally.
  net::NetClient client("127.0.0.1", server.port());
  net::SessionOptions options;
  options.session_id = 7;
  EXPECT_EQ(client.run_session(test_recording(), options).kind,
            net::SessionOutcome::Kind::kResult);
  server.stop();
}

TEST(NetFaultTest, ShardDispatchFaultSurfacesAsInternalError) {
  net::NetServer server(small_server_config(1));
  server.start();
  fault::ScopedFault guard("net.shard.dispatch=nth:1");
  net::NetClient client("127.0.0.1", server.port());
  net::SessionOptions options;
  options.session_id = 8;
  const net::SessionOutcome outcome =
      client.run_session(test_recording(), options);
  EXPECT_EQ(outcome.kind, net::SessionOutcome::Kind::kError);
  EXPECT_EQ(outcome.code, static_cast<std::uint16_t>(net::ErrorCode::kInternal));
  server.stop();
}

// ------------------------------------------------------------------- loadgen

TEST(LoadGenTest, ClosedLoopCompletesEverySession) {
  net::NetServer server(small_server_config(2));
  server.shards().install_model(tiny_model(), "test");
  server.start();

  net::LoadGenConfig cfg;
  cfg.port = server.port();
  cfg.sessions = 6;
  cfg.concurrency = 2;
  cfg.population = 2;
  cfg.chirp_count = 4;
  const net::LoadReport report = net::run_loadgen(cfg);
  EXPECT_EQ(report.attempted, 6u);
  EXPECT_EQ(report.completed, 6u);
  EXPECT_EQ(report.transport_failures, 0u);
  EXPECT_GT(report.p50_ms, 0.0);
  EXPECT_GE(report.p999_ms, report.p50_ms);
  ASSERT_TRUE(report.have_server_stats);
  std::uint64_t accepted = 0;
  for (const net::ShardStatsWire& shard : report.server.shards)
    accepted += shard.accepted;
  EXPECT_EQ(accepted, 6u);
  EXPECT_FALSE(report.text().empty());
  EXPECT_NE(report.json().find("\"completed\": 6"), std::string::npos);
  server.stop();
}

TEST(LoadGenTest, OpenLoopDiurnalAccountsForEverySession) {
  net::NetServer server(small_server_config(1));
  server.shards().install_model(tiny_model(), "test");
  server.start();

  net::LoadGenConfig cfg;
  cfg.port = server.port();
  cfg.sessions = 5;
  cfg.concurrency = 2;
  cfg.population = 1;
  cfg.chirp_count = 4;
  cfg.open_loop = true;
  cfg.arrival_rate_hz = 100.0;  // the whole schedule fits in ~50 ms
  cfg.diurnal = true;
  const net::LoadReport report = net::run_loadgen(cfg);
  EXPECT_EQ(report.attempted, 5u);
  // Every session has exactly one terminal outcome — the no-silent-drop
  // invariant, measured from the client side.
  EXPECT_EQ(report.completed + report.rejected + report.errored +
                report.transport_failures,
            5u);
  EXPECT_EQ(report.completed, 5u);
  server.stop();
}

}  // namespace
}  // namespace earsonar
