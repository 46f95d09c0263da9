// Session-affine sharding: a consistent-hash ring over N serving engines,
// plus the shard *lifecycle* layer — health-checked restart, graceful drain,
// and live resize.
//
// Why shard at all on one box: a live streaming session costs almost no CPU
// (the earbud paces chunks at wall-clock speed; filtering a 10 ms chunk takes
// microseconds) but occupies a *session slot* for its whole recording
// duration. The scaled resource is therefore slots, not cores — N shards hold
// N × max_sessions concurrent paced sessions, and the per-shard BoundedQueue
// keeps each shard's finalization backlog independent. bench_net measures
// exactly this: 4 shards sustain ≥2.5× the admitted session throughput of 1.
//
// Why a hash *ring* instead of `session_id % N`: session affinity must
// survive resizing. With modulo, going from N to N+1 shards remaps ~N/(N+1)
// of all sessions; on the ring only ~1/(N+1) move (only keys that now fall
// on the new shard's virtual nodes). tests/net_test.cpp pins both the
// balance (virtual nodes spread load within a factor) and the minimal-remap
// property — including under *live* add_shard/remove_shard.
//
// Shard lifecycle (docs/serving.md, "Shard lifecycle"):
//
//              ┌────────────────────────────────────────────┐
//              ▼                                            │
//   healthy ──kill/health-fault/wedge──▶ down ──▶ restarting┘
//      │
//      └──begin_drain──▶ draining ──in-flight done / deadline──▶ retired
//
//   * healthy     — in the ring, admitting. The supervisor thread probes the
//                   `net.shard.health` fault point and watches for a wedged
//                   engine (nonempty queue, no job resolved for
//                   wedge_timeout_ms).
//   * down        — crash observed. Still in the ring (sessions that hash
//                   here are rejected kShardRestarting — explicit, bounded,
//                   retryable — rather than silently remapped and back again
//                   a restart later). The admission epoch is bumped: every
//                   in-flight session on the shard is invalidated and its
//                   next frame answered with Error{kShardRestart}.
//   * restarting  — the supervisor tears the dedicated-thread ServingEngine
//                   down (its queue drain resolves every accepted future),
//                   builds a fresh one, reinstalls the last model, swaps it
//                   in, and returns the shard to healthy. `net.shard.restart`
//                   makes the restart attempt itself fail (retried next tick).
//   * draining    — out of the ring immediately (minimal-remap removal), no
//                   new Hellos, in-flight sessions finish normally until
//                   drain_deadline_ms, then the epoch bump invalidates
//                   stragglers and the engine stops.
//   * retired     — tombstone. Slot indices are stable (sessions and stats
//                   refer to them), so a drained slot is never reused.
//
// Fault points: `net.shard.dispatch` fires at session admission (transient
// dispatch failure → explicit Reject), `net.shard.health` makes the
// supervisor's next health probe of a shard observe a crash, and
// `net.admin.resize` fails a live add/drain before it mutates anything.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/frame.hpp"
#include "serve/engine.hpp"

namespace earsonar::net {

/// Consistent-hash ring mapping u64 session ids onto shard indices via
/// virtual nodes (64 ring points per shard). Supports live
/// membership changes: adding a shard only *inserts* its points and removing
/// one only *erases* its points, so every surviving key keeps its owner
/// unless the change itself took or gave that key (minimal remap).
class HashRing {
 public:
  explicit HashRing(std::size_t shards);

  /// The shard owning `session_id`: the first ring point at or after the
  /// id's hash, wrapping at the top. Undefined on an empty ring (the pool
  /// never drains its last member).
  [[nodiscard]] std::size_t shard_for(std::uint64_t session_id) const;

  /// Inserts `shard`'s replica points. No-op when already a member.
  void add_shard(std::size_t shard);
  /// Erases `shard`'s replica points. No-op when not a member.
  void remove_shard(std::size_t shard);
  [[nodiscard]] bool contains(std::size_t shard) const;

  /// Current member count (live shards, not historical slot count).
  [[nodiscard]] std::size_t shard_count() const { return members_; }

  /// The mixer used for ring points and keys (splitmix64 finalizer —
  /// avalanche-complete, so sequential session ids spread uniformly).
  [[nodiscard]] static std::uint64_t mix(std::uint64_t x);

 private:
  struct Point {
    std::uint64_t hash;
    std::uint32_t shard;
  };
  [[nodiscard]] static Point make_point(std::size_t shard, std::size_t replica);

  std::vector<Point> points_;  ///< sorted by hash
  std::size_t members_;
};

/// Per-shard lifecycle state (the wire carries the raw value in
/// ShardStatsWire::health / ShardHealthWire::health).
enum class ShardHealth : std::uint8_t {
  kHealthy = 0,
  kDraining = 1,
  kDown = 2,
  kRestarting = 3,
  kRetired = 4,
};

[[nodiscard]] const char* to_string(ShardHealth health);

struct ShardConfig {
  std::size_t shards = 1;
  /// Live streaming sessions a shard holds at once — the admission layer
  /// above the engine's BoundedQueue. A paced session occupies its slot for
  /// the recording's wall-clock duration; the queue only sees the (cheap)
  /// finalization, so slots saturate first under real-time load.
  std::size_t max_sessions_per_shard = 64;
  /// Per-shard engine template; every shard engine owns its worker threads,
  /// so the shards drain their queues concurrently.
  serve::EngineConfig engine;
  /// Supervisor heartbeat period: how often shard health is probed and
  /// down/draining shards are advanced through the state machine.
  int supervisor_interval_ms = 20;
  /// How long a draining shard waits for in-flight sessions before the
  /// epoch bump invalidates the stragglers and the engine stops.
  double drain_deadline_ms = 5000.0;
  /// A healthy shard with a nonempty queue and no job resolved (completed,
  /// failed or deadline-exceeded) for this long is declared wedged (down).
  /// 0 disables wedge detection.
  double wedge_timeout_ms = 2000.0;

  void validate() const;
};

/// What admission said. kDispatchFault is an injected/transient dispatch
/// failure — distinct so the server can report it honestly. kDraining /
/// kRestarting map to the RejectCodes of the same names: the client may
/// retry (a drained shard's keys remap once its points leave the ring; a
/// restarting shard comes back).
enum class Admission : std::uint8_t {
  kAdmitted,
  kSessionsFull,
  kStopped,
  kDispatchFault,
  kDraining,
  kRestarting,
};

class ShardPool {
 public:
  explicit ShardPool(ShardConfig config);
  ~ShardPool();

  ShardPool(const ShardPool&) = delete;
  ShardPool& operator=(const ShardPool&) = delete;

  void start();
  void stop();
  [[nodiscard]] bool running() const { return running_.load(); }

  /// Total slots ever created, including retired tombstones (stable indices).
  [[nodiscard]] std::size_t shard_count() const;
  /// Slots currently in the ring (admitting new sessions).
  [[nodiscard]] std::size_t ring_members() const;
  [[nodiscard]] std::size_t shard_for(std::uint64_t session_id) const;

  /// The shard's engine, as a shared_ptr snapshot: a restart swaps the
  /// pointer, so callers hold the snapshot for the duration of one
  /// operation and the old engine outlives every in-flight reference.
  [[nodiscard]] std::shared_ptr<serve::ServingEngine> engine(std::size_t shard) const;

  /// The canonical per-shard engine configuration (identical across shards;
  /// restart-safe, unlike engine(s)->config() on a swapped-out engine).
  [[nodiscard]] const serve::EngineConfig& engine_config() const {
    return config_.engine;
  }

  /// Tries to claim a live-session slot on `session_id`'s shard. On
  /// kAdmitted the caller owns one slot on `*shard_out` and must release it
  /// exactly once; `*epoch_out` is the shard's admission epoch — a later
  /// mismatch (session_current() == false) means the shard restarted or
  /// drained out from under the session. Fires `net.shard.dispatch`.
  Admission admit_session(std::uint64_t session_id, std::size_t* shard_out,
                          std::uint64_t* epoch_out = nullptr);
  void release_session(std::size_t shard);

  /// True while a session admitted at `epoch` on `shard` is still valid:
  /// the shard is healthy-or-draining and has not bumped its epoch.
  [[nodiscard]] bool session_current(std::size_t shard, std::uint64_t epoch) const;

  [[nodiscard]] std::int64_t sessions_active(std::size_t shard) const;
  [[nodiscard]] ShardHealth shard_health(std::size_t shard) const;
  [[nodiscard]] std::uint64_t shard_epoch(std::size_t shard) const;

  // ------------------------------------------------------------ lifecycle

  /// Grows the pool by one shard slot (ring insert is minimal-remap). False
  /// with `*error` set when refused (`net.admin.resize` fault, the 64-slot
  /// ceiling on slots ever created, live plus retired, pool stopped).
  bool add_shard(std::string* error = nullptr);

  /// Graceful drain: the slot leaves the ring immediately (no new Hellos;
  /// its keys remap), in-flight sessions finish until drain_deadline_ms,
  /// then the supervisor retires the slot. False when refused (last ring
  /// member, not healthy, `net.admin.resize` fault).
  bool begin_drain(std::size_t shard, std::string* error = nullptr);

  /// Kills the shard as a crash would: health → down, epoch bump (every
  /// in-flight session gets Error{kShardRestart} on its next frame). The
  /// supervisor restarts it. False when the slot is not restartable.
  bool kill_shard(std::size_t shard, std::string* error = nullptr);

  /// Installs a model into every live shard's registry and remembers it so
  /// a supervisor restart can reinstall it into the replacement engine.
  void install_model(const core::DetectorModel& model, const std::string& source);

  /// Per-shard counters in wire form (what a kStatsReply carries).
  [[nodiscard]] StatsPayload stats() const;

  /// Per-slot lifecycle state in wire form (what a kAdminReply carries).
  [[nodiscard]] std::vector<ShardHealthWire> health_snapshot() const;

  /// Prometheus-style lifecycle metrics (earsonar_net_shard_*), one sample
  /// per slot plus pool-level resize/restart counters.
  [[nodiscard]] std::string metrics_text() const;

  /// Wall-clock milliseconds the most recent completed restart took from
  /// crash detection back to healthy (0 before any restart).
  [[nodiscard]] double last_recovery_ms(std::size_t shard) const;

 private:
  struct Shard {
    std::shared_ptr<serve::ServingEngine> engine;
    std::atomic<std::int64_t> sessions_active{0};
    std::atomic<std::uint64_t> sessions_rejected{0};
    std::atomic<ShardHealth> health{ShardHealth::kHealthy};
    /// Admission epoch: sessions carry the epoch they were admitted under;
    /// restarts and drain-deadline overruns bump it, invalidating them.
    std::atomic<std::uint64_t> epoch{1};
    std::atomic<std::uint64_t> restarts{0};
    std::atomic<bool> in_ring{true};
    /// One fixed-point ms value (atomic<double> needs no lock here).
    std::atomic<double> last_recovery_ms{0.0};
    // Supervisor-thread-only bookkeeping (no locking needed).
    std::uint64_t last_resolved = 0;
    std::chrono::steady_clock::time_point last_progress{};
    std::chrono::steady_clock::time_point drain_started{};
    std::chrono::steady_clock::time_point down_since{};
  };

  [[nodiscard]] std::shared_ptr<serve::ServingEngine> make_engine() const;
  void supervisor_loop();
  void supervise_once(std::chrono::steady_clock::time_point now);
  void restart_shard(std::size_t index,
                     std::chrono::steady_clock::time_point now);
  void retire_shard(std::size_t index);

  ShardConfig config_;
  /// Guards ring_ membership, shards_ growth, and Shard::engine swaps.
  /// Admission and stats take it shared; resize/restart take it exclusive
  /// only for the pointer/membership mutation itself (engine construction
  /// and teardown happen outside the lock).
  mutable std::shared_mutex membership_mutex_;
  HashRing ring_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::shared_ptr<const core::DetectorModel> model_;  ///< for restart reinstall
  std::string model_source_;
  std::atomic<std::uint64_t> resizes_{0};
  std::thread supervisor_;
  std::atomic<bool> running_{false};
};

}  // namespace earsonar::net
