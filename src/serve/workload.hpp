// Workload types the serving substrate multiplexes.
//
// The engine carries more than one kind of screening on the same queue,
// workers, and metrics plane (ROADMAP item 4): the EarSonar echo pipeline
// (chunked 48 kHz audio through a StreamingSession) and wideband absorbance
// screening (a 226 Hz-8 kHz absorbance curve classified by the ml/ stack).
// Every ServeRequest carries its type; the tag rides the wire in Hello
// frames, keys the per-type metrics, and picks the job's pipeline when a
// worker runs it (docs/workloads.md).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace earsonar::serve {

enum class WorkloadType : std::uint8_t {
  kEarSonar = 0,    ///< chunked audio through the echo pipeline
  kAbsorbance = 1,  ///< wideband absorbance curve classification
};

inline constexpr std::size_t kWorkloadTypeCount = 2;

/// Stable index (0..1) for metric arrays and wire encoding.
std::size_t workload_index(WorkloadType type);

/// Inverse of workload_index; throws when index is out of range.
WorkloadType workload_from_index(std::size_t index);

/// Metric-label spelling: "earsonar" / "absorbance".
std::string to_string(WorkloadType type);

/// Parses a to_string label (case-insensitive); throws on junk.
WorkloadType workload_from_string(const std::string& label);

}  // namespace earsonar::serve
