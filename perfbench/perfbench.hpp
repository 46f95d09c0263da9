// Shared declarations of the end-to-end benchmark (see README.md here).
//
// The benchmark drives the serving stack only through its public surface —
// net::NetServer / net::NetClient and the frame codec, serve::ServingEngine,
// core::EarSonar — and times every call from its own code. Server-side
// numbers come from what the program already exports: the Result frame's
// queue_ms / total_ms, serve::ServeResult, serve::ServeMetrics counters,
// pipeline::StageGraph occupancy and the obs::Span stream.
#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "audio/waveform.hpp"
#include "core/model_io.hpp"
#include "core/pipeline.hpp"
#include "pipeline/stage_graph.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// ----------------------------------------------------------------- inputs

/// Enrollment cohort and served recordings, generated from the seed before
/// any clock starts. Served subjects are disjoint from enrollment subjects.
struct Population {
  std::vector<earsonar::audio::Waveform> enroll;  ///< 112 subjects x 4 states
  std::vector<std::size_t> enroll_labels;         ///< MeeState index per recording
  std::vector<earsonar::audio::Waveform> served;  ///< 64 subjects x 4 states
  std::vector<std::size_t> served_labels;
};

inline constexpr std::size_t kEnrollSubjects = 112;
inline constexpr std::size_t kServedSubjects = 64;
inline constexpr std::size_t kChirps = 30;
/// Pinned worker count of the shared parallel pool (fit, cohort synthesis).
inline constexpr std::size_t kPoolThreads = 2;

Population make_population(std::uint64_t seed);

/// FNV-1a over every sample's bytes, sample rate and label, in order.
std::uint64_t digest(const Population& population);

/// The causal pipeline configuration every workload serves with (streamed
/// ingestion cannot run the zero-phase filter).
earsonar::core::PipelineConfig serving_pipeline();

// ----------------------------------------------------------- observations

/// One attempted request as the benchmark observed it.
struct Outcome {
  enum class Kind : std::uint8_t { kResult, kRejected, kError, kTransport };
  Kind kind = Kind::kTransport;
  std::size_t recording = 0;    ///< index into Population::served
  std::uint64_t session_id = 0;
  double latency_ms = 0.0;      ///< client-observed, per the workload's definition
  double queue_ms = 0.0;        ///< server-reported (Result frame / ServeResult)
  double total_ms = 0.0;        ///< server-reported queue wait + processing
  bool has_diagnosis = false;
  std::size_t state = 0;
  std::uint32_t events = 0;
  std::uint32_t echoes = 0;
  std::vector<double> features;  ///< kept for spot-checked recordings and traced phases
};

/// One measured phase of a workload.
struct Phase {
  std::size_t attempted = 0;  ///< counted when each request is sent
  std::vector<Outcome> outcomes;  ///< one terminal outcome per attempt
  double wall_s = 0.0;
  double cpu_s = 0.0;                  ///< process CPU time (getrusage) over the phase
  std::vector<double> pacing_late_ms;  ///< live only: how late each frame was sent
  std::uint64_t chunks_fed = 0;        ///< ServeMetrics::chunks_fed delta
  std::uint64_t batches = 0;           ///< ServeMetrics::batches delta
  std::uint64_t batched_requests = 0;  ///< ServeMetrics::batched_requests delta
  std::uint64_t server_completed = 0;  ///< ServeMetrics::completed delta
  /// StageGraph occupancy deltas, indexed by pipeline::StageId.
  std::array<std::uint64_t, earsonar::pipeline::kStageCount> stage_items{};
  std::array<std::uint64_t, earsonar::pipeline::kStageCount> stage_passes{};
  std::array<std::uint64_t, earsonar::pipeline::kStageCount> stage_busy_us{};
};

/// Served recordings whose returned feature vectors are compared against an
/// in-process EarSonar::analyze of the same recording.
inline constexpr std::size_t kSpotChecks = 8;

// --------------------------------------------------------------- workloads

/// A serving stack under one traffic shape. start() + warm_up() are part of
/// setup_s; run() is the measured phase.
class Workload {
 public:
  virtual ~Workload() = default;
  virtual void start(const earsonar::core::DetectorModel& model) = 0;
  virtual void warm_up() = 0;
  /// `keep_all_features` keeps every Result's feature vector (the traced
  /// phase replays them through the codec), not only the spot-checked ones.
  virtual Phase run(double seconds, bool keep_all_features) = 0;
  virtual void stop() = 0;
  /// Target length of one measured repetition. Metrics pool all repetitions;
  /// the traced pass drains the recorder after each one, so a repetition
  /// bounds the spans held in memory.
  [[nodiscard]] virtual double repetition_s() const { return 0.5; }
  /// Samples per Chunk frame; 0 when requests do not travel over TCP.
  [[nodiscard]] virtual std::size_t chunk_samples() const = 0;
};

/// Builds the named workload ("upload", "live", "clinic_backlog") over the
/// population; nullptr for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const Population& population);

/// Frame encode + decode time (microseconds) of one session's frames,
/// replayed through the public codec: Hello, the Chunk frames of `chunk`
/// samples, Finish, HelloAck and the Result carrying `outcome` (with a
/// `feature_dimension` vector when the outcome kept none).
double codec_us(const earsonar::audio::Waveform& recording, std::size_t chunk,
                const Outcome& outcome, std::size_t feature_dimension);

}  // namespace perfbench
