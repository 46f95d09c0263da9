// Synthetic study participants.
//
// Substitutes the paper's 112-child clinical cohort: each subject is a seeded
// bundle of fixed anatomy (canal geometry, drum mechanics, spectral
// fingerprint) whose effusion state can be varied session to session — the
// way a real patient's middle ear changes while their anatomy does not.
#pragma once

#include <cstdint>
#include <string>

#include "common/rng.hpp"
#include "sim/ear_canal.hpp"
#include "sim/eardrum.hpp"
#include "sim/effusion.hpp"

namespace earsonar::sim {

struct Subject {
  std::uint32_t id = 0;
  std::uint64_t seed = 0;        ///< every stochastic draw for this subject forks from here
  EarCanal canal;
  DrumAnatomy drum;
  int age_years = 5;             ///< cohort is 4-6 years old
  bool male = true;

  /// The subject's eardrum model in a given effusion state. `fill` < 0 draws
  /// a state-typical fill fraction deterministically from the subject seed
  /// and `session` (so repeated sessions differ slightly, as in Fig. 10).
  [[nodiscard]] EardrumModel eardrum(EffusionState state, double fill = -1.0,
                                     std::uint64_t session = 0) const;
};

/// Deterministic generator: subject `i` from cohort seed `s` is always the
/// same person.
class SubjectFactory {
 public:
  explicit SubjectFactory(std::uint64_t cohort_seed);

  [[nodiscard]] Subject make(std::uint32_t subject_id) const;

 private:
  std::uint64_t cohort_seed_;
};

}  // namespace earsonar::sim
