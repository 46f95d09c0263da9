// EarSonar end-to-end benchmark program.
//
//   earsonar_perfbench --workload upload|live|clinic_backlog --seed N
//                      --seconds S --trace 0|1 [--trace-out FILE]
//   earsonar_perfbench --inputs-digest --seed N
//
// One process runs one workload. It generates the population from the seed,
// moves onto one CPU, sets the serving stack up kSetupRounds times (setup_s
// is their median; the cold first round never decides it), then measures.
// --trace 0 measures for S seconds untraced and reports the end-to-end
// metrics. --trace 1 measures S/2 untraced and S/2 with obs::TraceRecorder
// on, and reports the per-layer metrics (--trace-out writes the first traced
// repetition as Chrome JSON). Every run checks correctness; the last stdout
// line is one JSON object, and any violation exits nonzero. README.md in this directory
// documents workloads, metrics and the traced pass.
#include <dirent.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "check/tolerance.hpp"
#include "common/parallel.hpp"
#include "core/preprocess.hpp"
#include "dsp/simd.hpp"
#include "obs/trace.hpp"
#include "perfbench.hpp"

using namespace earsonar;
using namespace perfbench;

namespace {

#if defined(__OPTIMIZE__) && defined(NDEBUG)
constexpr bool kOptimizedBuild = true;
#else
constexpr bool kOptimizedBuild = false;
#endif

constexpr std::size_t kSetupRounds = 7;
/// Share of distinct served recordings that must be diagnosed correctly.
constexpr double kAccuracyFloor = 0.80;

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  bool inputs_digest = false;
  std::string trace_out;
};

std::optional<Options> parse(int argc, char** argv) {
  Options options;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::optional<std::string> {
      if (i + 1 >= argc) return std::nullopt;
      return std::string(argv[++i]);
    };
    std::optional<std::string> v;
    if (arg == "--inputs-digest") {
      options.inputs_digest = true;
      continue;
    }
    if (!(v = value())) return std::nullopt;
    try {
      if (arg == "--workload") {
        options.workload = *v;
      } else if (arg == "--seed") {
        options.seed = std::stoull(*v);
        have_seed = true;
      } else if (arg == "--seconds") {
        options.seconds = std::stod(*v);
      } else if (arg == "--trace") {
        if (*v != "0" && *v != "1") return std::nullopt;
        options.trace = *v == "1";
      } else if (arg == "--trace-out") {
        options.trace_out = *v;
      } else {
        return std::nullopt;
      }
    } catch (const std::exception&) {
      return std::nullopt;
    }
  }
  if (!have_seed || !(options.seconds > 0.0)) return std::nullopt;
  if (!options.inputs_digest && options.workload.empty()) return std::nullopt;
  return options;
}

/// Moves every thread of the process onto one CPU, the highest-numbered one
/// it may run on; threads started later inherit it. Returns that CPU.
std::optional<int> pin_to_one_cpu() {
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return std::nullopt;
  int cpu = -1;
  for (int c = 0; c < CPU_SETSIZE; ++c)
    if (CPU_ISSET(c, &allowed)) cpu = c;
  if (cpu < 0) return std::nullopt;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  DIR* tasks = opendir("/proc/self/task");
  if (tasks == nullptr) return std::nullopt;
  bool pinned = true;
  while (const dirent* task = readdir(tasks)) {
    if (task->d_name[0] == '.') continue;
    pinned = sched_setaffinity(std::atoi(task->d_name), sizeof one, &one) == 0 && pinned;
  }
  closedir(tasks);
  if (!pinned) return std::nullopt;
  return cpu;
}

// ------------------------------------------------------------ statistics

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

/// Exact nearest-rank percentile of raw samples; 0 when there are none.
double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

/// The percentile every *_tail metric reports. Rarer percentiles counted the
/// host's stalls rather than the program (README.md, "Why it is built this
/// way").
constexpr double kTailPercentile = 90.0;

double tail(std::vector<double> values) { return percentile(std::move(values), kTailPercentile); }

// ------------------------------------------------------------- accounting

struct Tally {
  std::size_t attempted = 0, completed = 0, rejected = 0, errored = 0, transport = 0;
  [[nodiscard]] std::size_t failed() const { return rejected + errored + transport; }
};

Tally tally(const std::vector<const Phase*>& phases) {
  Tally t;
  for (const Phase* phase : phases) {
    t.attempted += phase->attempted;
    for (const Outcome& o : phase->outcomes) {
      switch (o.kind) {
        case Outcome::Kind::kResult: ++t.completed; break;
        case Outcome::Kind::kRejected: ++t.rejected; break;
        case Outcome::Kind::kError: ++t.errored; break;
        case Outcome::Kind::kTransport: ++t.transport; break;
      }
    }
  }
  return t;
}

std::vector<double> completed_values(const Phase& phase, double (*field)(const Outcome&)) {
  std::vector<double> out;
  for (const Outcome& o : phase.outcomes)
    if (o.kind == Outcome::Kind::kResult) out.push_back(field(o));
  return out;
}

/// One phase holding every repetition's observations and counter deltas.
Phase merged(const std::vector<Phase>& reps) {
  Phase all;
  for (const Phase& rep : reps) {
    all.outcomes.insert(all.outcomes.end(), rep.outcomes.begin(), rep.outcomes.end());
    all.pacing_late_ms.insert(all.pacing_late_ms.end(), rep.pacing_late_ms.begin(),
                              rep.pacing_late_ms.end());
    all.attempted += rep.attempted;
    all.wall_s += rep.wall_s;
    all.cpu_s += rep.cpu_s;
    all.chunks_fed += rep.chunks_fed;
    all.batches += rep.batches;
    all.batched_requests += rep.batched_requests;
    all.server_completed += rep.server_completed;
    for (std::size_t s = 0; s < pipeline::kStageCount; ++s) {
      all.stage_items[s] += rep.stage_items[s];
      all.stage_passes[s] += rep.stage_passes[s];
      all.stage_busy_us[s] += rep.stage_busy_us[s];
    }
  }
  return all;
}

double latency_of(const Outcome& o) { return o.latency_ms; }
double queue_of(const Outcome& o) { return o.queue_ms; }
double finish_of(const Outcome& o) { return o.total_ms - o.queue_ms; }
double client_minus_server_of(const Outcome& o) { return o.latency_ms - o.total_ms; }

// ---------------------------------------------------------- correctness

struct Verdict {
  std::vector<std::string> violations;
  double accuracy = 0.0;
  std::size_t distinct = 0;

  void fail(const std::string& why) { violations.push_back(why); }
};

/// Accuracy is scored once per distinct served recording (its first result),
/// so it is a pure function of the seed and the recordings served; every
/// repeat of a recording must return the same diagnosis.
void check_outcomes(const std::vector<const Phase*>& phases, const Population& population,
                    Verdict& verdict) {
  const Tally t = tally(phases);
  if (t.attempted == 0) verdict.fail("no request attempted");
  if (t.attempted != t.completed + t.rejected + t.errored + t.transport)
    verdict.fail("accounting: attempted != completed + rejected + errored + transport");
  if (t.failed() != 0) {
    std::ostringstream os;
    os << "failures at benchmark load: rejected=" << t.rejected << " errored=" << t.errored
       << " transport=" << t.transport;
    verdict.fail(os.str());
  }
  for (const Phase* phase : phases) {
    std::size_t completed = 0;
    for (const Outcome& o : phase->outcomes) completed += o.kind == Outcome::Kind::kResult;
    if (phase->server_completed != completed) {
      std::ostringstream os;
      os << "server counted " << phase->server_completed << " completions, clients saw "
         << completed;
      verdict.fail(os.str());
    }
  }

  std::vector<std::optional<std::size_t>> first(population.served.size());
  std::size_t correct = 0;
  for (const Phase* phase : phases)
    for (const Outcome& o : phase->outcomes) {
      if (o.kind != Outcome::Kind::kResult) continue;
      const std::size_t state = o.has_diagnosis ? o.state : core::kMeeStateCount;
      if (!first[o.recording]) {
        first[o.recording] = state;
        ++verdict.distinct;
        correct += state == population.served_labels[o.recording];
      } else if (*first[o.recording] != state) {
        verdict.fail("recording " + std::to_string(o.recording) +
                     " diagnosed differently on a repeat");
      }
    }
  verdict.accuracy = verdict.distinct == 0 ? 0.0
                                           : static_cast<double>(correct) /
                                                 static_cast<double>(verdict.distinct);
  if (verdict.accuracy < kAccuracyFloor) {
    std::ostringstream os;
    os << "accuracy " << verdict.accuracy << " below floor " << kAccuracyFloor;
    verdict.fail(os.str());
  }
}

/// Served feature vectors must match an in-process analyze() of the same
/// recording within the oracle's tolerance for the 105-feature vector.
void spot_check_features(const std::vector<const Phase*>& phases,
                         const Population& population, Verdict& verdict) {
  const check::Tolerance tol = check::pair_policy("golden.features").tol;
  const core::EarSonar local(serving_pipeline());
  std::vector<bool> checked(kSpotChecks, false);
  for (const Phase* phase : phases)
    for (const Outcome& o : phase->outcomes) {
      if (o.kind != Outcome::Kind::kResult || o.recording >= kSpotChecks ||
          checked[o.recording])
        continue;
      checked[o.recording] = true;
      const std::vector<double> want = local.analyze(population.served[o.recording]).features;
      if (want.size() != o.features.size()) {
        verdict.fail("recording " + std::to_string(o.recording) +
                     ": served feature vector has a different length than analyze()");
        continue;
      }
      const check::CompareResult cmp = check::compare_vectors(o.features, want, tol);
      if (!cmp.ok)
        verdict.fail("recording " + std::to_string(o.recording) + ": " +
                     check::describe_failure("golden.features", cmp));
    }
  if (std::none_of(checked.begin(), checked.end(), [](bool c) { return c; }))
    verdict.fail("no spot-checked recording was served");
}

// ---------------------------------------------------------------- traces

struct SpanTotals {
  std::size_t count = 0;
  double ms = 0.0;
};

void add_span_totals(const std::vector<obs::TraceEvent>& events,
                     std::map<std::string, SpanTotals>& totals) {
  for (const obs::TraceEvent& e : events) {
    SpanTotals& t = totals[e.name];
    ++t.count;
    t.ms += static_cast<double>(e.dur_us) / 1000.0;
  }
}

double mean_span_ms(const std::map<std::string, SpanTotals>& totals, const std::string& name) {
  const auto it = totals.find(name);
  return it == totals.end() || it->second.count == 0
             ? 0.0
             : it->second.ms / static_cast<double>(it->second.count);
}

double total_span_ms(const std::map<std::string, SpanTotals>& totals, const std::string& name) {
  const auto it = totals.find(name);
  return it == totals.end() ? 0.0 : it->second.ms;
}

// ---------------------------------------------------------------- output

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_result(bool correct, const Tally& t, const std::vector<Metric>& metrics) {
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << t.attempted
     << ", \"failed\": " << t.failed() << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i)
    os << (i ? ", " : "") << "\"" << metrics[i].name
       << "\": {\"value\": " << json_number(metrics[i].value) << ", \"unit\": \""
       << metrics[i].unit << "\"}";
  os << "}}";
  std::printf("%s\n", os.str().c_str());
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

/// Median over three passes of BiquadCascade::process across the served
/// recordings, in nanoseconds per sample.
double bandpass_ns_per_sample(const Population& population) {
  const core::PipelineConfig config = serving_pipeline();
  dsp::BiquadCascade filter =
      core::Preprocessor(config.preprocess).streaming_filter(config.chirp.sample_rate);
  std::vector<double> passes;
  double sink = 0.0;
  for (int pass = 0; pass < 3; ++pass) {
    std::size_t samples = 0;
    const Clock::time_point t0 = Clock::now();
    for (const audio::Waveform& rec : population.served) {
      filter.reset();
      sink += filter.process(rec.view()).back();
      samples += rec.size();
    }
    passes.push_back(std::chrono::duration<double, std::nano>(Clock::now() - t0).count() /
                     static_cast<double>(samples));
  }
  if (!std::isfinite(sink)) std::fprintf(stderr, "bandpass output not finite\n");
  return median(passes);
}

/// Median over three fit_features calls on the enrollment features.
double fit_features_ms(const Population& population) {
  core::EarSonar pipeline(serving_pipeline());
  std::vector<std::vector<double>> features(population.enroll.size());
  parallel_for(population.enroll.size(), [&](std::size_t i) {
    features[i] = pipeline.analyze(population.enroll[i]).features;
  });
  ml::Matrix usable;
  std::vector<std::size_t> labels;
  for (std::size_t i = 0; i < features.size(); ++i) {
    if (features[i].empty()) continue;
    usable.push_back(features[i]);
    labels.push_back(population.enroll_labels[i]);
  }
  std::vector<double> times;
  for (int rep = 0; rep < 3; ++rep) {
    const Clock::time_point t0 = Clock::now();
    pipeline.fit_features(usable, labels);
    times.push_back(ms_between(t0, Clock::now()));
  }
  return median(times);
}

/// Layer rows of the upload p50: means per completed session from the
/// traced phase, plus the residual that makes the rows sum to the p50.
void print_layer_table(const Phase& traced, const std::map<std::string, SpanTotals>& spans) {
  const std::vector<double> latency = completed_values(traced, latency_of);
  const double sessions = static_cast<double>(latency.size());
  if (sessions == 0) return;
  const double p50 = median(latency);
  const double ingest = total_span_ms(spans, "stream_feed") / sessions;
  std::vector<std::pair<std::string, double>> rows = {
      {"net: transport, codec, the other connection's CPU turn",
       mean(completed_values(traced, client_minus_server_of)) - ingest},
      {"serve: connection-thread ingest (stream_feed)", ingest},
      {"serve: queue wait", mean(completed_values(traced, queue_of))},
      {"core: event_detect", total_span_ms(spans, "event_detect") / sessions},
      {"core: segment", total_span_ms(spans, "segment") / sessions},
      {"core: features (echo PSD + assembly)", total_span_ms(spans, "features") / sessions},
      {"core: inference", total_span_ms(spans, "inference") / sessions},
  };
  double covered = 0.0;
  for (const auto& row : rows) covered += row.second;
  rows.emplace_back("residual (p50 minus the rows above)", p50 - covered);
  std::printf("layer table: upload latency_p50_ms = %.4f over %.0f traced sessions\n", p50,
              sessions);
  for (const auto& [name, ms] : rows)
    std::printf("  %-52s %8.4f ms  %5.1f%%\n", name.c_str(), ms, 100.0 * ms / p50);
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Options> parsed = parse(argc, argv);
  if (!parsed) {
    std::fprintf(stderr,
                 "usage: earsonar_perfbench --workload upload|live|clinic_backlog "
                 "--seed N --seconds S --trace 0|1 [--trace-out FILE]\n"
                 "       earsonar_perfbench --inputs-digest --seed N\n");
    return 2;
  }
  const Options& options = *parsed;
  if (!kOptimizedBuild) {
    std::fprintf(stderr, "refusing to measure: the benchmark was not compiled with "
                         "optimisation and NDEBUG\n");
    return 2;
  }
  set_parallel_thread_count(kPoolThreads);

  const Population population = make_population(options.seed);
  if (options.inputs_digest) {
    std::printf("%016llx\n", static_cast<unsigned long long>(digest(population)));
    return 0;
  }
  if (!make_workload(options.workload, population)) {
    std::fprintf(stderr, "unknown workload '%s'\n", options.workload.c_str());
    return 2;
  }
  // Set-up and measurement run on one CPU (README.md, "one CPU"); the
  // population above is generated before, on every CPU the pool may use.
  const std::optional<int> cpu = pin_to_one_cpu();
  if (!cpu) std::fprintf(stderr, "warning: could not pin the process to one CPU\n");
  std::printf("host: nproc=%u cpu=%s pool_threads=%zu shards=1 workers=1 simd_level=%s "
              "simd_kernels=%s build=optimized\n",
              std::thread::hardware_concurrency(),
              cpu ? std::to_string(*cpu).c_str() : "unpinned", resolved_parallel_threads(),
              dsp::simd::active_level() == dsp::simd::Level::kNative ? "native" : "scalar",
              dsp::simd::active().name);
  std::printf("inputs: seed=%llu enroll=%zu served=%zu chirps=%zu digest=%016llx\n",
              static_cast<unsigned long long>(options.seed), population.enroll.size(),
              population.served.size(), kChirps,
              static_cast<unsigned long long>(digest(population)));

  // --- setup: fit + construct + start + install + warm-up, kSetupRounds
  // times; the last stack serves the measured phases.
  std::vector<double> setup_s, fit_ms;
  std::unique_ptr<Workload> workload;
  try {
    for (std::size_t round = 0; round < kSetupRounds; ++round) {
      if (workload) workload->stop();
      workload = make_workload(options.workload, population);
      const Clock::time_point t0 = Clock::now();
      core::EarSonar pipeline(serving_pipeline());
      pipeline.fit(population.enroll, population.enroll_labels);
      const Clock::time_point fitted = Clock::now();
      workload->start(core::snapshot(pipeline.detector()));
      workload->warm_up();
      setup_s.push_back(ms_between(t0, Clock::now()) / 1000.0);
      fit_ms.push_back(ms_between(t0, fitted));
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "setup failed: %s\n", e.what());
    return 1;
  }
  std::printf("setup rounds (s):");
  for (double s : setup_s) std::printf(" %.4f", s);
  std::printf("\n");

  // --- measured phases: untraced repetitions; with --trace 1, half the time
  // untraced and half traced. The recorder is drained after every traced
  // repetition (the spans read below all close before their Result is sent),
  // so memory stays bounded by one repetition's spans.
  const double measured_s = options.trace ? options.seconds / 2.0 : options.seconds;
  const std::size_t reps = static_cast<std::size_t>(
      std::max(1.0, std::round(measured_s / workload->repetition_s())));
  const double rep_s = measured_s / static_cast<double>(reps);
  std::vector<Phase> runs, traced_runs;
  std::map<std::string, SpanTotals> spans;
  std::size_t span_count = 0;
  try {
    for (std::size_t r = 0; r < reps; ++r) runs.push_back(workload->run(rep_s, false));
    if (options.trace) {
      obs::TraceRecorder& recorder = obs::TraceRecorder::instance();
      recorder.clear();
      recorder.enable();
      for (std::size_t r = 0; r < reps; ++r) {
        traced_runs.push_back(workload->run(rep_s, true));
        if (r == 0 && !options.trace_out.empty()) recorder.write_chrome_json(options.trace_out);
        const std::vector<obs::TraceEvent> events = recorder.snapshot();
        recorder.clear();
        span_count += events.size();
        add_span_totals(events, spans);
      }
      recorder.disable();
    }
    workload->stop();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "measurement failed: %s\n", e.what());
    return 1;
  }

  std::vector<const Phase*> phases;
  for (const Phase& run : runs) phases.push_back(&run);
  for (const Phase& run : traced_runs) phases.push_back(&run);
  const Tally t = tally(phases);
  Verdict verdict;
  check_outcomes(phases, population, verdict);
  spot_check_features(phases, population, verdict);

  std::vector<Metric> metrics;
  if (!options.trace) {
    // Every metric pools the raw samples of all repetitions.
    std::vector<double> latency;
    double wall_s = 0.0, cpu_s = 0.0;
    for (std::size_t r = 0; r < runs.size(); ++r) {
      const std::vector<double> rep = completed_values(runs[r], latency_of);
      latency.insert(latency.end(), rep.begin(), rep.end());
      wall_s += runs[r].wall_s;
      cpu_s += runs[r].cpu_s;
      std::printf("repetition %zu: n=%zu p50=%.4f ms p%.0f=%.4f ms throughput=%.2f/s "
                  "cpu=%.4f ms/item\n",
                  r, rep.size(), median(rep), kTailPercentile, tail(rep),
                  static_cast<double>(rep.size()) / runs[r].wall_s,
                  rep.empty() ? 0.0 : 1000.0 * runs[r].cpu_s / static_cast<double>(rep.size()));
    }
    const double completed = static_cast<double>(latency.size());
    std::printf("latency over %zu samples: p50=%.4f p%.0f=%.4f p99=%.4f ms\n", latency.size(),
                median(latency), kTailPercentile, tail(latency), percentile(latency, 99.0));
    std::vector<double> sorted = latency;
    std::sort(sorted.begin(), sorted.end());
    const std::size_t n = sorted.size();
    if (n > 10)
      std::printf("highest percentile with 10 samples beyond it: p%.3f = %.4f ms\n",
                  100.0 * static_cast<double>(n - 10) / static_cast<double>(n), sorted[n - 11]);
    metrics = {
        {"setup_s", median(setup_s), "s"},
        {"latency_p50_ms", median(latency), "ms"},
        {"latency_tail_ms", tail(latency), "ms"},
        {"throughput_per_s", completed / wall_s, "items/s"},
        {"cpu_ms_per_item", completed > 0 ? 1000.0 * cpu_s / completed : 0.0, "ms"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
        {"accuracy", verdict.accuracy, "ratio"},
    };
  } else {
    const Phase untraced = merged(runs);
    const Phase traced = merged(traced_runs);
    const double sessions = static_cast<double>(completed_values(traced, latency_of).size());
    const auto per_session = [&](double v) { return sessions > 0 ? v / sessions : 0.0; };
    const bool net = workload->chunk_samples() > 0;

    double codec = 0.0;
    std::size_t codec_sessions = 0;
    const std::size_t dim = core::EarSonar(serving_pipeline()).feature_dimension();
    for (const Outcome& o : traced.outcomes) {
      if (!net || o.kind != Outcome::Kind::kResult || codec_sessions >= 256) continue;
      codec += codec_us(population.served[o.recording], workload->chunk_samples(), o, dim);
      ++codec_sessions;
    }
    std::uint64_t events_total = 0, echoes_total = 0;
    for (const Outcome& o : traced.outcomes)
      if (o.kind == Outcome::Kind::kResult) {
        events_total += o.events;
        echoes_total += o.echoes;
      }
    const double p50_untraced = median(completed_values(untraced, latency_of));
    const double p50_traced = median(completed_values(traced, latency_of));

    metrics = {
        {"net.frames_per_session",
         net ? per_session(static_cast<double>(traced.chunks_fed) + 4.0 * sessions) : 0.0,
         "count"},
        {"net.codec_us_per_session",
         codec_sessions ? codec / static_cast<double>(codec_sessions) : 0.0, "us"},
        {"net.client_minus_server_ms_p50",
         median(completed_values(traced, client_minus_server_of)), "ms"},
        {"net.failed_ratio",
         t.attempted ? static_cast<double>(t.failed()) / static_cast<double>(t.attempted) : 0.0,
         "ratio"},
        {"serve.ingest_ms_per_session", per_session(total_span_ms(spans, "stream_feed")), "ms"},
        {"serve.queue_wait_ms_p50", median(completed_values(traced, queue_of)), "ms"},
        {"serve.queue_wait_ms_tail", tail(completed_values(traced, queue_of)), "ms"},
        {"serve.finish_ms_p50", median(completed_values(traced, finish_of)), "ms"},
        {"serve.batch_fill",
         traced.batches ? static_cast<double>(traced.batched_requests) /
                              static_cast<double>(traced.batches)
                        : 1.0,
         "count"},
        {"serve.batch_linger_ms", mean_span_ms(spans, "batch_collect"), "ms"},
    };
    for (std::size_t s = 0; s < pipeline::kStageCount; ++s) {
      const std::string stage = pipeline::stage_name(static_cast<pipeline::StageId>(s));
      metrics.push_back({"pipeline." + stage + ".busy_us_per_item",
                         traced.stage_items[s] ? static_cast<double>(traced.stage_busy_us[s]) /
                                                     static_cast<double>(traced.stage_items[s])
                                               : 0.0,
                         "us"});
    }
    const std::size_t psd = static_cast<std::size_t>(pipeline::StageId::kEchoPsd);
    metrics.push_back({"pipeline.echo_psd.items_per_pass",
                       traced.stage_passes[psd] ? static_cast<double>(traced.stage_items[psd]) /
                                                      static_cast<double>(traced.stage_passes[psd])
                                                : 0.0,
                       "count"});
    for (const char* stage : {"event_detect", "segment", "features", "inference"})
      metrics.push_back({std::string("core.") + stage + "_ms", mean_span_ms(spans, stage), "ms"});
    metrics.push_back({"core.chirps_used_ratio",
                       events_total ? static_cast<double>(echoes_total) /
                                          static_cast<double>(events_total)
                                    : 0.0,
                       "ratio"});
    metrics.push_back({"core.fit_ms", median(fit_ms), "ms"});
    metrics.push_back({"ml.fit_features_ms", fit_features_ms(population), "ms"});
    metrics.push_back({"dsp.bandpass_ns_per_sample", bandpass_ns_per_sample(population), "ns"});
    metrics.push_back({"client.pacing_late_ms_tail", tail(untraced.pacing_late_ms), "ms"});
    metrics.push_back({"obs.trace_overhead_pct",
                       p50_untraced > 0 ? 100.0 * (p50_traced - p50_untraced) / p50_untraced
                                        : 0.0,
                       "%"});
    std::printf("traced: %zu spans over %zu repetitions, %.0f sessions; codec replayed on "
                "%zu sessions\n",
                span_count, reps, sessions, codec_sessions);
    if (options.workload == "upload") print_layer_table(traced, spans);
  }

  for (const std::string& why : verdict.violations)
    std::fprintf(stderr, "correctness violation: %s\n", why.c_str());
  std::printf("correctness: accuracy=%.6f over %zu distinct recordings; attempted=%zu "
              "completed=%zu rejected=%zu errored=%zu transport=%zu\n",
              verdict.accuracy, verdict.distinct, t.attempted, t.completed, t.rejected,
              t.errored, t.transport);
  const bool correct = verdict.violations.empty();
  print_result(correct, t, metrics);
  return correct ? 0 : 1;
}
