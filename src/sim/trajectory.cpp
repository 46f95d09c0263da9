#include "sim/trajectory.hpp"

#include <algorithm>
#include <cmath>

#include "audio/chirp.hpp"
#include "common/error.hpp"
#include "common/parallel.hpp"
#include "sim/eardrum.hpp"
#include "sim/effusion.hpp"

namespace earsonar::sim {

namespace {

/// One planned stretch of constant otoscope state.
struct Segment {
  EffusionState state = EffusionState::kClear;
  std::size_t dwell = 0;  ///< sessions spent in this state
};

std::size_t draw_dwell(earsonar::Rng& rng, std::int64_t lo, std::int64_t hi) {
  return static_cast<std::size_t>(rng.uniform_int(lo, hi));
}

/// Plans the full state arc for one subject as (state, dwell) segments:
/// seeded onset -> worsening (Serous, maybe Mucoid, maybe Purulent) ->
/// stepwise resolution -> possibly one milder relapse arc. The plan may
/// overrun the follow-up window; materialization truncates. All draws happen
/// unconditionally in a fixed order so the walk is a pure function of the rng.
std::vector<Segment> plan_arc(earsonar::Rng& rng, const TrajectoryConfig& config) {
  std::vector<Segment> segments;
  const bool onsets = rng.bernoulli(config.onset_probability);
  const std::size_t pre = draw_dwell(rng, 2, 8);
  if (!onsets) {
    // Healthy control: Clear for the whole window (dwell padded later).
    segments.push_back({EffusionState::kClear, pre});
    return segments;
  }
  segments.push_back({EffusionState::kClear, pre});

  // Worsening leg: every case passes through Serous; most thicken to Mucoid
  // (the paper's glue-ear bulk); some of those suppurate.
  segments.push_back({EffusionState::kSerous, draw_dwell(rng, 3, 8)});
  const bool to_mucoid = rng.bernoulli(0.7);
  const std::size_t mucoid_dwell = draw_dwell(rng, 4, 10);
  const bool to_purulent = rng.bernoulli(0.45);
  const std::size_t purulent_dwell = draw_dwell(rng, 3, 8);
  if (to_mucoid) {
    segments.push_back({EffusionState::kMucoid, mucoid_dwell});
    if (to_purulent)
      segments.push_back({EffusionState::kPurulent, purulent_dwell});
  }

  // Resolution leg: retrace the severity ladder down to Clear.
  const std::size_t down_mucoid = draw_dwell(rng, 2, 6);
  const std::size_t down_serous = draw_dwell(rng, 2, 6);
  if (to_mucoid && to_purulent)
    segments.push_back({EffusionState::kMucoid, down_mucoid});
  if (to_mucoid)
    segments.push_back({EffusionState::kSerous, down_serous});
  segments.push_back({EffusionState::kClear, draw_dwell(rng, 4, 10)});

  // Possible relapse: one milder Serous (maybe Mucoid) arc, then Clear.
  const bool relapses = rng.bernoulli(config.relapse_probability);
  const std::size_t re_serous = draw_dwell(rng, 3, 7);
  const bool re_mucoid = rng.bernoulli(0.5);
  const std::size_t re_mucoid_dwell = draw_dwell(rng, 3, 7);
  const std::size_t re_down_serous = draw_dwell(rng, 2, 5);
  if (relapses) {
    segments.push_back({EffusionState::kSerous, re_serous});
    if (re_mucoid) {
      segments.push_back({EffusionState::kMucoid, re_mucoid_dwell});
      segments.push_back({EffusionState::kSerous, re_down_serous});
    }
    segments.push_back({EffusionState::kClear, draw_dwell(rng, 4, 10)});
  }
  return segments;
}

}  // namespace

void TrajectoryConfig::validate() const {
  require(subject_count >= 1, "TrajectoryConfig: subject_count must be >= 1");
  require(days >= 1, "TrajectoryConfig: days must be >= 1");
  require_in_range("TrajectoryConfig onset_probability", onset_probability, 0.0, 1.0);
  require_in_range("TrajectoryConfig relapse_probability", relapse_probability, 0.0, 1.0);
  require(fill_smoothing > 0.0 && fill_smoothing <= 1.0,
          "TrajectoryConfig: fill_smoothing must be in (0, 1]");
  require(fill_noise_sigma >= 0.0,
          "TrajectoryConfig: fill_noise_sigma must be >= 0");
  require(notch_noise_db >= 0.0, "TrajectoryConfig: notch_noise_db must be >= 0");
}

TrajectoryGenerator::TrajectoryGenerator(TrajectoryConfig config)
    : config_(config), factory_(config.seed) {
  config_.validate();
}

double TrajectoryGenerator::surrogate_notch_depth_db(const Subject& subject,
                                                     EffusionState state,
                                                     double fill) const {
  // Depth of the reflectance notch across the probe's chirp band: the same
  // physics the waveform path convolves into the echo, read off |R(f)|
  // directly. Fluid loading pulls the drum resonance down into the band and
  // deepens the notch, which is exactly the feature the paper tracks.
  const EardrumModel drum(subject.drum, state, fill);
  const audio::FmcwConfig probe;
  const double low_hz = probe.start_hz;
  const double high_hz = probe.end_hz();
  constexpr std::size_t kPoints = 33;
  double r_min = 1e9;
  double r_max = 0.0;
  for (std::size_t i = 0; i < kPoints; ++i) {
    const double f =
        low_hz + (high_hz - low_hz) * static_cast<double>(i) /
                     static_cast<double>(kPoints - 1);
    const double r = drum.reflectance(f);
    r_min = std::min(r_min, r);
    r_max = std::max(r_max, r);
  }
  return 20.0 * std::log10(std::max(r_max, 1e-9) / std::max(r_min, 1e-9));
}

SubjectTrajectory TrajectoryGenerator::generate_subject(std::uint32_t subject_id) const {
  const Subject subject = factory_.make(subject_id);
  Rng rng(splitmix64(subject.seed ^ splitmix64(0x7247ec70ULL)));
  const std::size_t total = config_.days * 2;  // twice-daily cadence

  SubjectTrajectory out;
  out.subject_id = subject_id;
  out.sessions.reserve(total);

  const std::vector<Segment> segments = plan_arc(rng, config_);

  // Ground-truth change points from segment boundaries that land inside the
  // window: Clear -> fluid is an onset, fluid -> Clear a resolution.
  {
    std::size_t cursor = 0;
    EffusionState previous = segments.front().state;
    for (std::size_t s = 0; s < segments.size(); ++s) {
      if (s > 0 && cursor < total) {
        const EffusionState next = segments[s].state;
        if (!has_fluid(previous) && has_fluid(next))
          out.change_points.push_back({static_cast<std::uint32_t>(cursor), true});
        if (has_fluid(previous) && !has_fluid(next))
          out.change_points.push_back({static_cast<std::uint32_t>(cursor), false});
        previous = next;
      }
      cursor += segments[s].dwell;
    }
  }

  // Roll the continuous fill path and the surrogate feature along the plan.
  // Each segment gets one fill target draw (its episode severity); the fill
  // relaxes toward the target exponentially with per-session jitter, so state
  // flips show up in the feature with realistic lag instead of as steps.
  double fill = 0.0;
  std::size_t segment_index = 0;
  std::size_t remaining = segments.front().dwell;
  double target = 0.0;
  auto draw_target = [&](EffusionState state) {
    const EffusionProperties props = effusion_properties(state);
    if (!has_fluid(state)) return 0.0;
    return std::clamp(rng.normal(props.fill_mean, props.fill_sigma), 0.0, 1.0);
  };
  target = draw_target(segments.front().state);
  for (std::size_t session = 0; session < total; ++session) {
    while (remaining == 0 && segment_index + 1 < segments.size()) {
      ++segment_index;
      remaining = segments[segment_index].dwell;
      target = draw_target(segments[segment_index].state);
    }
    const EffusionState state = segments[segment_index].state;
    if (remaining > 0) --remaining;

    fill += config_.fill_smoothing * (target - fill) +
            rng.normal(0.0, config_.fill_noise_sigma);
    fill = std::clamp(fill, 0.0, 1.0);

    TrajectorySession point;
    point.session = static_cast<std::uint32_t>(session);
    point.state = state;
    point.fill = fill;
    point.notch_depth_db = surrogate_notch_depth_db(subject, state, fill) +
                           rng.normal(0.0, config_.notch_noise_db);
    out.sessions.push_back(point);
  }
  return out;
}

std::vector<SubjectTrajectory> TrajectoryGenerator::generate() const {
  std::vector<SubjectTrajectory> cohort(config_.subject_count);
  parallel_for(
      config_.subject_count,
      [&](std::size_t i) {
        cohort[i] = generate_subject(static_cast<std::uint32_t>(i));
      },
      config_.threads);
  return cohort;
}

audio::Waveform TrajectoryGenerator::render_session(
    const SubjectTrajectory& trajectory, std::size_t session_index,
    const ProbeConfig& probe_config, const Earphone& earphone,
    const RecordingCondition& condition) const {
  require(session_index < trajectory.sessions.size(),
          "TrajectoryGenerator::render_session: session_index out of range");
  const Subject subject = factory_.make(trajectory.subject_id);
  const TrajectorySession& point = trajectory.sessions[session_index];
  const EardrumModel drum(subject.drum, point.state, point.fill);
  Rng rng(splitmix64(subject.seed ^ splitmix64(0x3e55ULL + point.session)));
  const EarProbe probe(probe_config);
  return probe.record(subject, drum, earphone, condition, rng);
}

}  // namespace earsonar::sim
