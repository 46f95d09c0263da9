#include "sim/subject.hpp"

namespace earsonar::sim {

EardrumModel Subject::eardrum(EffusionState state, double fill, std::uint64_t session) const {
  if (fill < 0.0) {
    // Session-specific but reproducible fill draw. Mix each component through
    // splitmix64 independently before combining: folding session and state
    // additively into one constant ahead of a single hash leaves structured
    // correlation between adjacent (session, state) seeds.
    const std::uint64_t mixed =
        splitmix64(seed ^ 0xf111ULL) ^ splitmix64(session) ^
        splitmix64(0x57a7e000ULL + static_cast<std::uint64_t>(state_index(state)));
    Rng rng(splitmix64(mixed));
    fill = sample_fill_fraction(state, rng);
  }
  return EardrumModel(drum, state, fill);
}

SubjectFactory::SubjectFactory(std::uint64_t cohort_seed) : cohort_seed_(cohort_seed) {}

Subject SubjectFactory::make(std::uint32_t subject_id) const {
  Subject subject;
  subject.id = subject_id;
  subject.seed = splitmix64(cohort_seed_ ^ splitmix64(0x5b6ec7 + subject_id));
  Rng rng(subject.seed);
  subject.canal = sample_ear_canal(rng);
  subject.drum = sample_drum_anatomy(rng);
  subject.age_years = static_cast<int>(rng.uniform_int(4, 6));
  // Paper cohort: 60 male / 52 female out of 112.
  subject.male = rng.bernoulli(60.0 / 112.0);
  return subject;
}

}  // namespace earsonar::sim
