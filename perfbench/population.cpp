#include "perfbench.hpp"
#include "sim/dataset.hpp"

namespace perfbench {

using namespace earsonar;

Population make_population(std::uint64_t seed) {
  sim::CohortConfig config;
  config.subject_count = kEnrollSubjects + kServedSubjects;
  config.sessions_per_state = 1;
  config.seed = seed;
  config.probe.chirp_count = kChirps;
  config.threads = kPoolThreads;
  // Subject-major order: the first kEnrollSubjects subjects enroll, the rest
  // are served, so no served ear was seen in training.
  std::vector<sim::SessionRecording> all = sim::CohortGenerator(config).generate();
  Population population;
  for (sim::SessionRecording& rec : all) {
    const bool enrolled = rec.subject_id < kEnrollSubjects;
    (enrolled ? population.enroll : population.served).push_back(std::move(rec.waveform));
    (enrolled ? population.enroll_labels : population.served_labels)
        .push_back(sim::state_index(rec.state));
  }
  return population;
}

std::uint64_t digest(const Population& population) {
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](const void* data, std::size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      h ^= bytes[i];
      h *= 1099511628211ULL;
    }
  };
  const auto mix_set = [&](const std::vector<audio::Waveform>& waves,
                           const std::vector<std::size_t>& labels) {
    for (std::size_t i = 0; i < waves.size(); ++i) {
      const double rate = waves[i].sample_rate();
      mix(&rate, sizeof rate);
      mix(waves[i].view().data(), waves[i].size() * sizeof(double));
      const std::uint64_t label = labels[i];
      mix(&label, sizeof label);
    }
  };
  mix_set(population.enroll, population.enroll_labels);
  mix_set(population.served, population.served_labels);
  return h;
}

core::PipelineConfig serving_pipeline() {
  core::PipelineConfig config;
  config.preprocess.zero_phase = false;
  return config;
}

}  // namespace perfbench
