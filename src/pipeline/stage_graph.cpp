#include "pipeline/stage_graph.hpp"

#include <sstream>

namespace earsonar::pipeline {

namespace {

// The one authoritative spelling of each exported stage name. The docs gate
// (scripts/check_docs.sh) greps these EARSONAR_STAGE(...) sites and requires
// every name in docs/architecture.md, so renaming or adding a stage without
// updating the architecture page fails the `docs` ctest.
#define EARSONAR_STAGE(name) #name
constexpr const char* kStageNames[kStageCount] = {
    EARSONAR_STAGE(filter),       EARSONAR_STAGE(event_detect),
    EARSONAR_STAGE(segment),      EARSONAR_STAGE(echo_psd),
    EARSONAR_STAGE(features),     EARSONAR_STAGE(inference),
};
#undef EARSONAR_STAGE

}  // namespace

const char* stage_name(StageId id) {
  return kStageNames[static_cast<std::size_t>(id)];
}

std::span<const char* const> stage_names() {
  return {kStageNames, kStageCount};
}

void StageGraph::record(StageId id, double busy_ms, std::size_t item_count,
                        bool batched) {
  StageStats& s = stats(id);
  s.items.fetch_add(item_count, std::memory_order_relaxed);
  s.passes.fetch_add(1, std::memory_order_relaxed);
  if (batched) s.batched_items.fetch_add(item_count, std::memory_order_relaxed);
  s.busy_us.fetch_add(static_cast<std::uint64_t>(busy_ms * 1000.0),
                      std::memory_order_relaxed);
}

std::string StageGraph::text_snapshot() const {
  std::ostringstream os;
  for (std::size_t i = 0; i < kStageCount; ++i) {
    const StageStats& s = stats_[i];
    const char* name = kStageNames[i];
    os << "earsonar_serve_stage_items{stage=\"" << name << "\"} "
       << s.items.load(std::memory_order_relaxed) << "\n";
    os << "earsonar_serve_stage_passes{stage=\"" << name << "\"} "
       << s.passes.load(std::memory_order_relaxed) << "\n";
    os << "earsonar_serve_stage_batched_items{stage=\"" << name << "\"} "
       << s.batched_items.load(std::memory_order_relaxed) << "\n";
    os << "earsonar_serve_stage_busy_ms{stage=\"" << name << "\"} "
       << s.busy_us.load(std::memory_order_relaxed) / 1000.0 << "\n";
  }
  os << "earsonar_serve_batch_fallbacks_total " << fallbacks() << "\n";
  return os.str();
}

}  // namespace earsonar::pipeline
