// Shard lifecycle & failure-recovery drills: health-checked restart,
// graceful drain, live resize, deadline-budgeted client retry, typed
// transport timeouts, and the full seeded chaos drill over the load
// harness. Built with the `chaos` ctest label so the whole suite runs under
// ASan/UBSan and TSan in scripts/check_sanitize.sh — lifecycle code is
// exactly the code whose bugs are data races and use-after-frees.
//
// The invariants drilled here are the ones docs/serving.md promises:
//   * a killed shard comes back healthy with its model reinstalled, and the
//     crash is visible as a bumped epoch + restart counter, never silence;
//   * every in-flight session on a dead shard ends in a typed
//     Error{kShardRestart} — exactly one terminal frame, nothing vanishes;
//   * a graceful drain lets in-flight sessions finish, keeps admitting
//     nothing, and retires the slot; stragglers past the drain deadline are
//     invalidated, not leaked;
//   * the chaos drill's accounting closes: attempted == completed +
//     rejected + errored + transport, with the pool healthy again after.
#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/fault.hpp"
#include "common/rng.hpp"
#include "core/pipeline.hpp"
#include "net/client.hpp"
#include "net/frame.hpp"
#include "net/loadgen.hpp"
#include "net/server.hpp"
#include "net/shard.hpp"
#include "net/socket.hpp"
#include "serve/engine.hpp"
#include "sim/probe.hpp"
#include "sim/subject.hpp"

namespace earsonar {
namespace {

using Clock = std::chrono::steady_clock;

audio::Waveform test_recording(std::uint64_t seed = 7) {
  sim::SubjectFactory factory(42);
  sim::ProbeConfig pc;
  pc.chirp_count = 6;
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

/// Pool config with a fast supervisor so recovery happens at test timescale.
net::ShardConfig fast_pool_config(std::size_t shards) {
  net::ShardConfig cfg;
  cfg.shards = shards;
  cfg.engine.workers = 1;
  cfg.engine.session.pipeline = causal_config();
  cfg.supervisor_interval_ms = 5;
  return cfg;
}

net::NetServerConfig small_server_config(std::size_t shards) {
  net::NetServerConfig cfg;
  cfg.port = 0;  // ephemeral
  cfg.shards = fast_pool_config(shards);
  return cfg;
}

/// Polls until `predicate()` or `timeout`; true when the predicate held.
template <typename Predicate>
bool wait_for(Predicate predicate, std::chrono::milliseconds timeout) {
  const Clock::time_point deadline = Clock::now() + timeout;
  while (Clock::now() < deadline) {
    if (predicate()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return predicate();
}

// ------------------------------------------------------- supervised restart

TEST(ShardLifecycleTest, KilledShardRestartsAndAdmitsAgain) {
  net::ShardPool pool(fast_pool_config(1));
  pool.start();
  std::size_t shard = 0;
  std::uint64_t epoch = 0;
  ASSERT_EQ(pool.admit_session(1, &shard, &epoch), net::Admission::kAdmitted);
  EXPECT_TRUE(pool.session_current(shard, epoch));

  ASSERT_TRUE(pool.kill_shard(0));
  // The crash invalidates the in-flight session immediately (epoch bump) —
  // before the restart even starts, so nothing races the replacement engine.
  EXPECT_FALSE(pool.session_current(shard, epoch));

  ASSERT_TRUE(wait_for(
      [&] { return pool.shard_health(0) == net::ShardHealth::kHealthy; },
      std::chrono::milliseconds(5000)))
      << "shard never returned to healthy; state "
      << net::to_string(pool.shard_health(0));
  EXPECT_GE(pool.stats().shards[0].restarts, 1u);
  EXPECT_GT(pool.last_recovery_ms(0), 0.0);

  // The replacement engine serves: a fresh session is admitted and current.
  ASSERT_EQ(pool.admit_session(2, &shard, &epoch), net::Admission::kAdmitted);
  EXPECT_TRUE(pool.session_current(shard, epoch));
  pool.release_session(shard);
  pool.stop();
}

TEST(ShardLifecycleTest, DownShardRejectsAdmissionExplicitlyNotSilently) {
  // While down/restarting, the shard keeps its ring points: a session
  // hashing there gets an explicit retryable reject instead of being
  // remapped away and back again one restart later.
  net::ShardConfig cfg = fast_pool_config(1);
  cfg.supervisor_interval_ms = 200;  // hold the shard down long enough to see
  net::ShardPool pool(cfg);
  pool.start();
  ASSERT_TRUE(pool.kill_shard(0));
  std::size_t shard = 0;
  const net::Admission admission = pool.admit_session(1, &shard);
  EXPECT_TRUE(admission == net::Admission::kRestarting ||
              admission == net::Admission::kAdmitted)
      << "down shard must reject-retryable (or already be restarted)";
  pool.stop();
}

TEST(ShardLifecycleTest, HealthFaultPointDrivesSupervisedRestart) {
  net::ShardPool pool(fast_pool_config(1));
  pool.start();
  const std::uint64_t epoch_before = pool.shard_epoch(0);
  {
    // The supervisor's next health probe of the shard observes a crash.
    fault::ScopedFault guard("net.shard.health=nth:1");
    ASSERT_TRUE(wait_for(
        [&] { return pool.stats().shards[0].restarts >= 1; },
        std::chrono::milliseconds(5000)));
  }
  ASSERT_TRUE(wait_for(
      [&] { return pool.shard_health(0) == net::ShardHealth::kHealthy; },
      std::chrono::milliseconds(5000)));
  EXPECT_GT(pool.shard_epoch(0), epoch_before);
  pool.stop();
}

TEST(ShardLifecycleTest, RestartFaultPointRetriesUntilRecovered) {
  net::ShardPool pool(fast_pool_config(1));
  pool.start();
  {
    // The first restart attempt itself fails; the supervisor must retry on
    // a later tick rather than leave the shard down forever.
    fault::ScopedFault guard("net.shard.restart=nth:1");
    ASSERT_TRUE(pool.kill_shard(0));
    ASSERT_TRUE(wait_for(
        [&] { return pool.shard_health(0) == net::ShardHealth::kHealthy; },
        std::chrono::milliseconds(5000)));
  }
  EXPECT_GE(pool.stats().shards[0].restarts, 1u);
  pool.stop();
}

// --------------------------------------------------------- wedge detection

// A queue that stays busy while every job fails is making progress: a failed
// job is resolved as surely as a completed one, so the supervisor must not
// read "no completions" as a wedge and restart the shard (which would cut
// every in-flight session with Error{kShardRestart}).
TEST(ShardWedgeTest, BusyShardWhoseJobsAllFailStaysHealthy) {
  net::ShardConfig cfg = fast_pool_config(1);
  cfg.supervisor_interval_ms = 2;
  cfg.wedge_timeout_ms = 100.0;
  net::ShardPool pool(cfg);
  pool.install_model(tiny_model(), "test");
  pool.start();
  const audio::Waveform recording = test_recording();
  fault::ScopedFault guard("pipeline.event_detect=always");
  // Keep the queue nonempty for six wedge timeouts; every job fails at event
  // detection, so no job ever completes.
  std::vector<std::future<serve::ServeResult>> results;
  const Clock::time_point until = Clock::now() + std::chrono::milliseconds(600);
  while (Clock::now() < until) {
    const std::shared_ptr<serve::ServingEngine> engine = pool.engine(0);
    if (engine->queue_depth() < 32) {
      serve::Submission sub = engine->submit({"failing", recording});
      if (sub.accepted) results.push_back(std::move(sub.result));
    } else {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  }
  for (auto& result : results) EXPECT_FALSE(result.get().error.empty());
  EXPECT_EQ(pool.shard_health(0), net::ShardHealth::kHealthy);
  EXPECT_EQ(pool.stats().shards[0].restarts, 0u) << "a failing shard was taken for wedged";
  EXPECT_EQ(pool.engine(0)->metrics().completed.load(), 0u);
  EXPECT_GT(pool.engine(0)->metrics().failed.load(), 0u);
  pool.stop();
}

// The wedge the supervisor exists for: one job runs past the timeout while
// another waits behind it, and nothing is resolved in between.
TEST(ShardWedgeTest, JobOutlastingTimeoutWithWorkQueuedIsDeclaredDown) {
  net::ShardConfig cfg = fast_pool_config(1);
  cfg.engine.chunk_samples = 1;  // a sample per feed: a long ingest
  cfg.supervisor_interval_ms = 2;
  cfg.wedge_timeout_ms = 5.0;
  net::ShardPool pool(cfg);
  pool.install_model(tiny_model(), "test");
  pool.start();
  const audio::Waveform tile = test_recording();
  std::vector<double> samples;
  while (samples.size() < 300000)
    samples.insert(samples.end(), tile.samples().begin(), tile.samples().end());
  const std::shared_ptr<serve::ServingEngine> engine = pool.engine(0);
  serve::Submission running =
      engine->submit({"long", audio::Waveform(std::move(samples), tile.sample_rate())});
  ASSERT_TRUE(running.accepted) << running.reason;
  serve::Submission waiting = engine->submit({"waiting", tile});
  ASSERT_TRUE(waiting.accepted) << waiting.reason;
  ASSERT_TRUE(wait_for([&] { return pool.stats().shards[0].restarts >= 1; },
                       std::chrono::milliseconds(10000)))
      << "a shard stuck on one job with work queued was never declared down";
  // The restart drains the old engine: both futures resolve.
  (void)running.result.get();
  (void)waiting.result.get();
  pool.stop();
}

// ---------------------------------------------------------- graceful drain

TEST(ShardLifecycleTest, DrainStopsAdmissionThenRetiresIdleShard) {
  net::ShardPool pool(fast_pool_config(2));
  pool.start();
  ASSERT_EQ(pool.ring_members(), 2u);
  ASSERT_TRUE(pool.begin_drain(1));
  // Out of the ring immediately: every new session maps to the survivor.
  EXPECT_EQ(pool.ring_members(), 1u);
  for (std::uint64_t sid = 1; sid <= 32; ++sid)
    EXPECT_EQ(pool.shard_for(sid), 0u);
  // Idle, so the supervisor retires it on the next tick.
  ASSERT_TRUE(wait_for(
      [&] { return pool.shard_health(1) == net::ShardHealth::kRetired; },
      std::chrono::milliseconds(5000)));
  // A retired slot keeps its (stable) index but is never reused.
  EXPECT_EQ(pool.shard_count(), 2u);
  EXPECT_FALSE(pool.begin_drain(0)) << "last ring member must not drain";
  pool.stop();
}

TEST(ShardLifecycleTest, DrainDeadlineInvalidatesStragglers) {
  net::ShardConfig cfg = fast_pool_config(2);
  cfg.drain_deadline_ms = 50.0;  // stragglers get invalidated fast
  net::ShardPool pool(cfg);
  pool.start();
  // Park a session on shard 1 and never finish it.
  std::uint64_t sid = 1;
  std::size_t shard = 0;
  std::uint64_t epoch = 0;
  while (true) {
    const net::Admission a = pool.admit_session(sid, &shard, &epoch);
    ASSERT_EQ(a, net::Admission::kAdmitted);
    if (shard == 1) break;
    pool.release_session(shard);
    ++sid;
  }
  ASSERT_TRUE(pool.begin_drain(1));
  EXPECT_TRUE(pool.session_current(1, epoch)) << "in-flight survives drain start";
  // Past the deadline the straggler is invalidated and the slot retires.
  ASSERT_TRUE(wait_for(
      [&] { return pool.shard_health(1) == net::ShardHealth::kRetired; },
      std::chrono::milliseconds(5000)));
  EXPECT_FALSE(pool.session_current(1, epoch));
  pool.stop();
}

TEST(ShardLifecycleTest, AdminResizeFaultRefusesWithoutMutating) {
  net::ShardPool pool(fast_pool_config(2));
  pool.start();
  fault::ScopedFault guard("net.admin.resize=always");
  std::string error;
  EXPECT_FALSE(pool.add_shard(&error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(pool.begin_drain(0, &error));
  EXPECT_EQ(pool.shard_count(), 2u);
  EXPECT_EQ(pool.ring_members(), 2u);
  EXPECT_EQ(pool.shard_health(0), net::ShardHealth::kHealthy);
  pool.stop();
}

// ------------------------------------------- in-flight sessions on a crash

TEST(ChaosLoopbackTest, InFlightSessionOnKilledShardGetsTypedError) {
  net::NetServer server(small_server_config(1));
  server.shards().install_model(tiny_model(), "test");
  server.start();

  net::TcpStream stream = net::TcpStream::connect("127.0.0.1", server.port());
  net::HelloPayload hello;
  hello.sample_rate = 48000.0;
  net::write_frame(stream, net::FrameType::kHello, 1, net::encode_hello(hello));
  std::vector<double> arena;
  net::ReadFrameResult read = net::read_frame(stream, arena);
  ASSERT_EQ(read.kind, net::ReadFrameResult::Kind::kFrame);
  ASSERT_EQ(read.header.type, net::FrameType::kHelloAck);

  // Crash the session's shard. The epoch bump is immediate, so the outcome
  // does not depend on whether the supervisor has restarted it yet.
  ASSERT_TRUE(server.shards().kill_shard(0));

  const double samples[8] = {0.0, 0.1, -0.1, 0.0, 0.1, 0.0, -0.1, 0.0};
  net::write_chunk_frame(stream, 1, samples);
  read = net::read_frame(stream, arena);
  ASSERT_EQ(read.kind, net::ReadFrameResult::Kind::kFrame);
  EXPECT_EQ(read.header.type, net::FrameType::kError);
  const auto status = net::decode_status(net::payload_bytes(arena, read.header));
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(status->code,
            static_cast<std::uint16_t>(net::ErrorCode::kShardRestart));

  // The server survived; once the shard is back, new sessions complete.
  ASSERT_TRUE(wait_for(
      [&] {
        return server.shards().shard_health(0) == net::ShardHealth::kHealthy;
      },
      std::chrono::milliseconds(5000)));
  net::NetClient client("127.0.0.1", server.port());
  net::SessionOptions options;
  options.session_id = 9;
  EXPECT_EQ(client.run_session(test_recording(), options).kind,
            net::SessionOutcome::Kind::kResult);
  server.stop();
}

TEST(ChaosLoopbackTest, DrainLetsInFlightSessionFinish) {
  net::NetServer server(small_server_config(2));
  server.shards().install_model(tiny_model(), "test");
  server.start();

  const audio::Waveform recording = test_recording();
  net::TcpStream stream = net::TcpStream::connect("127.0.0.1", server.port());
  net::HelloPayload hello;
  hello.sample_rate = 48000.0;
  net::write_frame(stream, net::FrameType::kHello, 1, net::encode_hello(hello));
  std::vector<double> arena;
  net::ReadFrameResult read = net::read_frame(stream, arena);
  ASSERT_EQ(read.kind, net::ReadFrameResult::Kind::kFrame);
  ASSERT_EQ(read.header.type, net::FrameType::kHelloAck);
  const auto ack = net::decode_hello_ack(net::payload_bytes(arena, read.header));
  ASSERT_TRUE(ack.has_value());

  ASSERT_TRUE(server.shards().begin_drain(ack->shard));
  // The drained shard admits nothing new, but this session streams to a
  // normal Result — graceful means in-flight work finishes.
  net::write_chunk_frame(stream, 1, recording.view());
  net::write_frame(stream, net::FrameType::kFinish, 1, {});
  read = net::read_frame(stream, arena);
  ASSERT_EQ(read.kind, net::ReadFrameResult::Kind::kFrame);
  EXPECT_EQ(read.header.type, net::FrameType::kResult);

  // With its last session done, the slot retires and the pool serves on.
  ASSERT_TRUE(wait_for(
      [&] {
        return server.shards().shard_health(ack->shard) ==
               net::ShardHealth::kRetired;
      },
      std::chrono::milliseconds(5000)));
  net::NetClient client("127.0.0.1", server.port());
  net::SessionOptions options;
  options.session_id = 50;
  EXPECT_EQ(client.run_session(recording, options).kind,
            net::SessionOutcome::Kind::kResult);
  server.stop();
}

// ----------------------------------------------------- timeouts and retry

TEST(ChaosClientTest, ReadTimeoutIsTypedNotHang) {
  net::TcpListener listener = net::TcpListener::bind("127.0.0.1", 0);
  net::TcpStream stream =
      net::TcpStream::connect("127.0.0.1", listener.port(), 1000);
  std::optional<net::TcpStream> server_side = listener.accept(1000);
  ASSERT_TRUE(server_side.has_value());

  stream.set_read_timeout_ms(50);
  std::vector<double> arena;
  const Clock::time_point start = Clock::now();
  const net::ReadFrameResult read = net::read_frame(stream, arena);
  const double waited_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - start).count();
  EXPECT_EQ(read.kind, net::ReadFrameResult::Kind::kIoError);
  EXPECT_TRUE(read.timed_out) << read.io_error;
  EXPECT_GE(waited_ms, 25.0) << "timed out before the configured bound";
  EXPECT_LT(waited_ms, 5000.0) << "read did not honor the timeout";
}

TEST(ChaosClientTest, RetryableContractPerCode) {
  net::SessionOutcome outcome;
  outcome.kind = net::SessionOutcome::Kind::kTransport;
  EXPECT_TRUE(net::NetClient::retryable(outcome));

  outcome.kind = net::SessionOutcome::Kind::kRejected;
  const net::RejectCode retryable_rejects[] = {
      net::RejectCode::kShardSessionsFull, net::RejectCode::kQueueFull,
      net::RejectCode::kTooManyConnections, net::RejectCode::kShardDraining,
      net::RejectCode::kShardRestarting};
  for (const net::RejectCode code : retryable_rejects) {
    outcome.code = static_cast<std::uint16_t>(code);
    EXPECT_TRUE(net::NetClient::retryable(outcome)) << net::to_string(code);
  }
  outcome.code = static_cast<std::uint16_t>(net::RejectCode::kStopped);
  EXPECT_FALSE(net::NetClient::retryable(outcome));

  outcome.kind = net::SessionOutcome::Kind::kError;
  outcome.code = static_cast<std::uint16_t>(net::ErrorCode::kShardRestart);
  EXPECT_TRUE(net::NetClient::retryable(outcome));
  outcome.code = static_cast<std::uint16_t>(net::ErrorCode::kUnsupportedRate);
  EXPECT_FALSE(net::NetClient::retryable(outcome));

  outcome.kind = net::SessionOutcome::Kind::kResult;
  outcome.code = 0;
  EXPECT_FALSE(net::NetClient::retryable(outcome));
}

TEST(ChaosClientTest, RetryExhaustsAttemptsOnPersistentReject) {
  // One shard, one session slot, slot held: every Hello is rejected
  // kShardSessionsFull — retryable, so the client retries to exhaustion.
  net::NetServerConfig cfg = small_server_config(1);
  cfg.shards.max_sessions_per_shard = 1;
  net::NetServer server(cfg);
  server.shards().install_model(tiny_model(), "test");
  server.start();

  net::TcpStream holder = net::TcpStream::connect("127.0.0.1", server.port());
  net::HelloPayload hello;
  hello.sample_rate = 48000.0;
  net::write_frame(holder, net::FrameType::kHello, 1, net::encode_hello(hello));
  std::vector<double> arena;
  ASSERT_EQ(net::read_frame(holder, arena).header.type,
            net::FrameType::kHelloAck);

  net::NetClient client("127.0.0.1", server.port());
  net::SessionOptions options;
  options.session_id = 2;
  net::RetryPolicy policy;
  policy.max_attempts = 3;
  policy.initial_backoff_ms = 5.0;
  policy.max_backoff_ms = 20.0;
  const net::SessionOutcome outcome =
      client.run_session_with_retry(test_recording(), options, policy);
  EXPECT_EQ(outcome.kind, net::SessionOutcome::Kind::kRejected);
  EXPECT_EQ(outcome.code,
            static_cast<std::uint16_t>(net::RejectCode::kShardSessionsFull));
  EXPECT_EQ(outcome.attempts, 3u);
  server.stop();
}

TEST(ChaosClientTest, RetryBudgetStopsBeforeDeadlineBlowout) {
  net::NetServerConfig cfg = small_server_config(1);
  cfg.shards.max_sessions_per_shard = 1;
  net::NetServer server(cfg);
  server.shards().install_model(tiny_model(), "test");
  server.start();

  net::TcpStream holder = net::TcpStream::connect("127.0.0.1", server.port());
  net::HelloPayload hello;
  hello.sample_rate = 48000.0;
  net::write_frame(holder, net::FrameType::kHello, 1, net::encode_hello(hello));
  std::vector<double> arena;
  ASSERT_EQ(net::read_frame(holder, arena).header.type,
            net::FrameType::kHelloAck);

  net::NetClient client("127.0.0.1", server.port());
  net::SessionOptions options;
  options.session_id = 2;
  net::RetryPolicy policy;
  policy.max_attempts = 50;  // the budget, not the count, must stop this
  policy.initial_backoff_ms = 200.0;
  policy.budget_ms = 300.0;
  const Clock::time_point start = Clock::now();
  const net::SessionOutcome outcome =
      client.run_session_with_retry(test_recording(), options, policy);
  const double elapsed_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - start).count();
  EXPECT_EQ(outcome.kind, net::SessionOutcome::Kind::kRejected);
  EXPECT_LT(outcome.attempts, 50u);
  // Generous bound: the budget caps sleeps, so the whole retry loop ends in
  // budget + one attempt's work, nowhere near 50 × 200 ms.
  EXPECT_LT(elapsed_ms, 5000.0);
  server.stop();
}

TEST(ChaosClientTest, RetryJitterIsSeededAndBanded) {
  net::RetryPolicy policy;
  policy.validate();  // defaults are valid
  net::RetryPolicy bad;
  bad.jitter = 1.5;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = net::RetryPolicy{};
  bad.max_attempts = 0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
}

// ----------------------------------------------------------- the full drill

TEST(ChaosDrillTest, SeededDrillKeepsAccountingAndRecovers) {
  net::NetServerConfig cfg = small_server_config(2);
  cfg.enable_admin = true;
  net::NetServer server(cfg);
  server.shards().install_model(tiny_model(), "test");
  server.start();

  net::LoadGenConfig base;
  base.port = server.port();
  base.sessions = 16;
  base.concurrency = 4;
  base.population = 2;
  base.chirp_count = 4;
  const net::LoadReport baseline = net::run_loadgen(base);
  ASSERT_EQ(baseline.completed, baseline.attempted);

  net::LoadGenConfig drill = base;
  drill.sessions = 32;  // 2x the baseline pressure
  drill.chaos = true;
  drill.chaos_events = 2;
  drill.chaos_seed = 7;
  drill.max_attempts = 4;
  drill.retry_budget_ms = 5000.0;
  drill.connect_timeout_ms = 2000;
  drill.read_timeout_ms = 5000;
  const net::LoadReport report = net::run_loadgen(drill);

  // The drill's contract, exactly as `earsonar loadgen --chaos` asserts it.
  EXPECT_TRUE(report.accounting_ok)
      << report.attempted << " attempted vs " << report.completed << "+"
      << report.rejected << "+" << report.errored << "+"
      << report.transport_failures;
  EXPECT_EQ(report.chaos_events_fired, 2u);
  EXPECT_TRUE(report.all_healthy) << "pool did not return to healthy";
  EXPECT_GE(report.recovery_ms, 0.0);
  EXPECT_GT(report.completed, 0u);
  // Tail recovery: lenient 2x-plus-slack bound against the no-chaos
  // baseline — the drill proves the tail comes *back*, not that chaos is
  // free while it is happening.
  EXPECT_LE(report.p99_recovered_ms, 2.0 * baseline.p99_ms + 250.0);

  // Server-side: every slot that is not a retired tombstone is healthy.
  for (std::size_t s = 0; s < server.shards().shard_count(); ++s) {
    const net::ShardHealth health = server.shards().shard_health(s);
    EXPECT_TRUE(health == net::ShardHealth::kHealthy ||
                health == net::ShardHealth::kRetired)
        << "slot " << s << " ended " << net::to_string(health);
  }
  server.stop();
}

}  // namespace
}  // namespace earsonar
