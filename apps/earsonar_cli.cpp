// earsonar — the command-line front end a release would ship.
//
//   earsonar simulate --out DIR [--subjects N] [--seed S]
//       Generate a labeled cohort of WAV recordings + labels.csv.
//   earsonar train --data DIR --model FILE
//       Train the detection head from DIR/labels.csv and save the model.
//   earsonar diagnose --model FILE WAV...
//       Diagnose one or more recordings with a saved model.
//   earsonar inspect WAV
//       Show events, segmented echoes, the echo spectrum, and the chirp
//       frequency track of a recording.
//   earsonar analyze [WAV...] [--simulate] [--model FILE]
//       Run the full pipeline and report per-stage timings; the entry point
//       for trace capture (--trace-out).
//   earsonar serve --model FILE --watch DIR
//       Run the streaming serving engine over a watched directory, diagnosing
//       WAVs as they appear and hot-swapping the model file when it changes.
//   earsonar serve-net [--port P] [--shards N] ...
//       Run the networked sharded serving front-end: a TCP listener speaking
//       the binary frame protocol over a consistent-hash shard pool.
//   earsonar loadgen --port P [--sessions N] ...
//       Replay a simulated user population against a serve-net instance and
//       report tail latency plus per-shard counters.
//   earsonar longitudinal [--subjects N] [--days D] [--seed S] ...
//       Synthesize a longitudinal effusion cohort and score the online CUSUM
//       change-point detector against its ground-truth onsets/resolutions.
//
// Global options (every subcommand): --log-level LVL routes the leveled
// narration (common/log.hpp), --trace-out FILE enables obs tracing and
// writes Chrome-trace/Perfetto JSON on exit. See docs/cli.md.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <future>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "audio/wav.hpp"
#include "common/csv.hpp"
#include "common/log.hpp"
#include "common/table.hpp"
#include "core/model_io.hpp"
#include "core/pipeline.hpp"
#include "dsp/stft.hpp"
#include "longitudinal/cohort.hpp"
#include "obs/trace.hpp"
#include "net/loadgen.hpp"
#include "net/server.hpp"
#include "serve/engine.hpp"
#include "sim/dataset.hpp"
#include "sim/trajectory.hpp"

using namespace earsonar;
namespace fs = std::filesystem;

namespace {

// ------------------------------------------------------------ tiny arg API

struct Args {
  std::map<std::string, std::string> options;
  std::vector<std::string> positional;
};

/// Options that are flags: present or absent, never followed by a value.
/// (Before this set existed, `earsonar diagnose --help` died with
/// "missing value for --help".)
const std::set<std::string> kBooleanFlags = {"help",     "verbose",   "once",
                                             "simulate", "open-loop", "diurnal",
                                             "json",     "admin",     "chaos"};

Args parse_args(int argc, char** argv, int first) {
  Args args;
  for (int i = first; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) == 0) {
      const std::string body = arg.substr(2);
      const std::size_t eq = body.find('=');
      if (eq != std::string::npos) {
        args.options[body.substr(0, eq)] = body.substr(eq + 1);
      } else if (kBooleanFlags.count(body) > 0) {
        args.options[body] = "1";
      } else {
        if (i + 1 >= argc) throw std::invalid_argument("missing value for " + arg);
        args.options[body] = argv[++i];
      }
    } else {
      args.positional.push_back(arg);
    }
  }
  return args;
}

bool flag_set(const Args& args, const std::string& key) {
  return args.options.count(key) > 0;
}

std::string option_or(const Args& args, const std::string& key,
                      const std::string& fallback) {
  const auto it = args.options.find(key);
  return it == args.options.end() ? fallback : it->second;
}

std::string require_option(const Args& args, const std::string& key) {
  const auto it = args.options.find(key);
  if (it == args.options.end())
    throw std::invalid_argument("required option --" + key + " missing");
  return it->second;
}

// ----------------------------------------------------------- per-command help

void print_simulate_usage() {
  std::printf(
      "usage: earsonar simulate --out DIR [--subjects N] [--seed S]\n"
      "\n"
      "Generate a labeled synthetic cohort of WAV recordings + labels.csv.\n"
      "\n"
      "  --out DIR       output directory (created if missing)\n"
      "  --subjects N    subjects per effusion state   [16]\n"
      "  --seed S        cohort RNG seed               [42]\n");
}

void print_train_usage() {
  std::printf(
      "usage: earsonar train --data DIR --model FILE\n"
      "\n"
      "Train the detection head from DIR/labels.csv and save the model.\n"
      "\n"
      "  --data DIR      directory holding WAVs + labels.csv (see simulate)\n"
      "  --model FILE    where to write the fitted detector model\n");
}

void print_diagnose_usage() {
  std::printf(
      "usage: earsonar diagnose --model FILE WAV...\n"
      "\n"
      "Diagnose one or more recordings with a saved model.\n"
      "\n"
      "  --model FILE    fitted detector model (see train)\n");
}

void print_inspect_usage() {
  std::printf(
      "usage: earsonar inspect WAV\n"
      "\n"
      "Show events, segmented echoes, the echo spectrum, the chirp frequency\n"
      "track, and per-stage timings of one recording.\n");
}

void print_analyze_usage() {
  std::printf(
      "usage: earsonar analyze [WAV...] [--simulate] [--model FILE] [--seed S]\n"
      "\n"
      "Run the full signal pipeline (band-pass, event detection, per-chirp\n"
      "segmentation, feature extraction, optional inference) on each input\n"
      "and report events, echoes, and per-stage timings. The natural entry\n"
      "point for profiling: combine with the global --trace-out FILE to\n"
      "capture a Chrome-trace/Perfetto span timeline of every stage.\n"
      "\n"
      "  --simulate      analyze one simulated recording (no WAV needed)\n"
      "  --model FILE    also diagnose with a fitted detector model\n"
      "  --seed S        RNG seed for --simulate                 [42]\n"
      "  --trace-out F   write a Chrome-trace JSON profile to F (global)\n"
      "  --log-level L   debug|info|warn|error|off              [info]\n");
}

void print_serve_usage() {
  std::printf(
      "usage: earsonar serve --model FILE --watch DIR [options]\n"
      "\n"
      "Run the streaming serving engine: WAV files appearing in DIR are fed\n"
      "chunk-by-chunk through streaming sessions on a worker pool and\n"
      "diagnosed with the model, which is hot-swapped in place whenever FILE\n"
      "changes on disk. Requests beyond the queue capacity are rejected (and\n"
      "retried on the next scan) rather than buffered without bound.\n"
      "\n"
      "  --model FILE      fitted detector model; reloaded when its mtime changes\n"
      "  --watch DIR       directory to scan for incoming .wav files\n"
      "  --threads N       request workers leased from the pool  [2]\n"
      "  --queue N         request queue capacity                [64]\n"
      "  --chunk N         ingestion chunk size in samples       [480]\n"
      "  --batch-max N     requests a worker takes per wake-up, then runs\n"
      "                    one at a time, each answered before the next [1]\n"
      "  --batch-wait-us U linger for batch stragglers, microseconds     [200]\n"
      "  --interval-ms M   directory scan period                 [500]\n"
      "  --deadline-ms M   per-request deadline; 0 disables      [0]\n"
      "  --once            single scan pass, drain, and exit\n"
      "  --verbose         print the metrics snapshot on exit\n"
      "  --trace-out FILE  write a Chrome-trace JSON profile on exit (global)\n"
      "  --log-level LVL   debug|info|warn|error|off             [info]\n");
}

void print_serve_net_usage() {
  std::printf(
      "usage: earsonar serve-net [options]\n"
      "\n"
      "Run the networked sharded serving front-end: a TCP listener speaking\n"
      "the length-prefixed binary frame protocol (docs/serving.md), sharding\n"
      "sessions across N serving engines by consistent hash of the session\n"
      "id. Overload is answered with explicit Reject frames at three layers\n"
      "(connections, per-shard session slots, per-shard request queue) —\n"
      "nothing is silently dropped.\n"
      "\n"
      "  --host H            IPv4 listen address              [127.0.0.1]\n"
      "  --port P            listen port; 0 picks one         [0]\n"
      "  --shards N          serving engine shards            [4]\n"
      "  --shard-workers N   worker threads per shard         [1]\n"
      "  --queue N           per-shard request queue          [64]\n"
      "  --batch-max N       requests a worker takes per wake-up,\n"
      "                      run one at a time                [1]\n"
      "  --batch-wait-us U   batch straggler linger, usec     [200]\n"
      "  --max-sessions N    live sessions per shard          [64]\n"
      "  --max-connections N concurrent connections           [256]\n"
      "  --model FILE        detector model loaded into every shard\n"
      "  --deadline-ms M     default session deadline; 0 off  [0]\n"
      "  --admin             enable session-0 admin frames (live add/drain/\n"
      "                      restart/health; loadgen --chaos needs this)\n"
      "  --duration-s S      serve for S seconds then drain; 0 = forever\n"
      "  --once              bind, report the port, drain, and exit\n"
      "  --verbose           print per-shard metrics snapshots on exit\n"
      "  --trace-out FILE    write a Chrome-trace JSON profile on exit (global)\n"
      "  --log-level LVL     debug|info|warn|error|off        [info]\n");
}

void print_loadgen_usage() {
  std::printf(
      "usage: earsonar loadgen --port P [options]\n"
      "\n"
      "Replay a population of simulated ears against a running serve-net\n"
      "instance. Closed loop by default (--concurrency workers running\n"
      "sessions back to back); --open-loop replays a Poisson arrival\n"
      "schedule at --rate, optionally shaped by a --diurnal curve (the run\n"
      "is one compressed day). Reports exact client-observed p50/p99/p999\n"
      "latency plus the server's per-shard counters.\n"
      "\n"
      "  --port P          server port (required)\n"
      "  --host H          server address                   [127.0.0.1]\n"
      "  --sessions N      total sessions to attempt        [64]\n"
      "  --concurrency N   worker connections               [8]\n"
      "  --open-loop       Poisson arrivals instead of closed loop\n"
      "  --rate HZ         open-loop mean arrival rate      [8]\n"
      "  --diurnal         modulate open-loop arrivals over a compressed day\n"
      "  --peak-trough R   diurnal peak/trough rate ratio   [4]\n"
      "  --population N    distinct simulated subjects      [16]\n"
      "  --chirps N        probe chirps per recording       [6]\n"
      "  --chunk N         samples per chunk frame          [4800]\n"
      "  --time-scale X    chunk pacing as fraction of real time; 0 = backlogged\n"
      "  --deadline-ms M   per-session deadline; 0 = server default\n"
      "  --seed S          population / arrival RNG seed    [42]\n"
      "  --connect-timeout-ms T  bound each dial; 0 = blocking     [0]\n"
      "  --read-timeout-ms T     bound each read; 0 = no timeout   [0]\n"
      "  --max-attempts N  attempts per session incl. first; >1 enables the\n"
      "                    deadline-budgeted retry loop     [1]\n"
      "  --retry-budget-ms M  wall-clock retry budget per session; 0 = none\n"
      "  --chaos           fire seeded kill/drain/add lifecycle events\n"
      "                    mid-replay (server needs --admin) and assert the\n"
      "                    accounting + recovery invariants\n"
      "  --chaos-events N  lifecycle events to fire         [3]\n"
      "  --chaos-seed S    chaos schedule RNG seed          [7]\n"
      "  --json            emit the report as one JSON object\n"
      "  --trace-out FILE  write a Chrome-trace JSON profile on exit (global)\n"
      "  --log-level LVL   debug|info|warn|error|off        [info]\n");
}

void print_longitudinal_usage() {
  std::printf(
      "usage: earsonar longitudinal [options]\n"
      "\n"
      "Synthesize a cohort of per-subject effusion trajectories (seeded\n"
      "semi-Markov over the effusion states, two screening sessions per day)\n"
      "and run the online two-sided CUSUM change-point detector over each\n"
      "subject's 18 kHz notch-depth series. Reports detection rates and mean\n"
      "delays for onsets and resolutions over the scorable change points,\n"
      "plus the false-alarm rate. Deterministic for a given seed at every\n"
      "thread count. See docs/workloads.md for the trajectory model and the\n"
      "detector math.\n"
      "\n"
      "  --subjects N       cohort size                        [112]\n"
      "  --days D           follow-up window, 2 sessions/day   [20]\n"
      "  --seed S           cohort RNG seed                    [42]\n"
      "  --onset-prob P     probability a subject develops effusion  [0.85]\n"
      "  --baseline N       CUSUM baseline sessions before arming    [6]\n"
      "  --cusum-h H        CUSUM alarm threshold (sigma units)      [5]\n"
      "  --cusum-k K        CUSUM per-step drift/slack (sigma units) [0.5]\n"
      "  --match-window W   max sessions between change point and alarm [12]\n"
      "  --threads T        worker threads; 0 = auto           [0]\n"
      "  --trace-out FILE   write a Chrome-trace JSON profile on exit (global)\n"
      "  --log-level LVL    debug|info|warn|error|off          [info]\n");
}

// ------------------------------------------------------------- subcommands

int cmd_simulate(const Args& args) {
  if (flag_set(args, "help")) {
    print_simulate_usage();
    return 0;
  }
  const fs::path out_dir = require_option(args, "out");
  const std::size_t subjects =
      static_cast<std::size_t>(std::stoul(option_or(args, "subjects", "16")));
  const std::uint64_t seed = std::stoull(option_or(args, "seed", "42"));

  fs::create_directories(out_dir);
  sim::CohortConfig cfg;
  cfg.subject_count = subjects;
  cfg.sessions_per_state = 1;
  cfg.probe.chirp_count = 30;
  cfg.seed = seed;
  const auto recordings = sim::CohortGenerator(cfg).generate();

  CsvWriter labels((out_dir / "labels.csv").string());
  labels.header({"file", "state", "subject", "session", "fill"});
  for (const auto& rec : recordings) {
    std::ostringstream name;
    name << "s" << rec.subject_id << "_v" << rec.session << ".wav";
    audio::write_wav((out_dir / name.str()).string(), rec.waveform,
                     audio::WavEncoding::kFloat32);
    labels.row({name.str(), sim::to_string(rec.state),
                std::to_string(rec.subject_id), std::to_string(rec.session),
                CsvWriter::format(rec.fill)});
  }
  std::printf("wrote %zu recordings + labels.csv to %s\n", recordings.size(),
              out_dir.string().c_str());
  return 0;
}

int cmd_train(const Args& args) {
  if (flag_set(args, "help")) {
    print_train_usage();
    return 0;
  }
  const fs::path data_dir = require_option(args, "data");
  const std::string model_path = require_option(args, "model");

  std::ifstream labels_file(data_dir / "labels.csv");
  if (!labels_file) {
    log_error("cannot open ", data_dir.string(), "/labels.csv");
    return 1;
  }
  std::string line;
  std::getline(labels_file, line);  // header

  core::EarSonar pipeline;
  ml::Matrix features;
  std::vector<std::size_t> labels;
  std::size_t skipped = 0;
  while (std::getline(labels_file, line)) {
    if (line.empty()) continue;
    std::istringstream row(line);
    std::string file, state_name;
    std::getline(row, file, ',');
    std::getline(row, state_name, ',');
    const audio::Waveform wav = audio::read_wav((data_dir / file).string());
    core::EchoAnalysis analysis = pipeline.analyze(wav);
    if (!analysis.usable()) {
      ++skipped;
      continue;
    }
    features.push_back(std::move(analysis.features));
    labels.push_back(sim::state_index(sim::effusion_state_from_string(state_name)));
  }
  std::printf("loaded %zu recordings (%zu without a usable echo)\n",
              features.size(), skipped);

  core::MeeDetector detector;
  detector.fit(features, labels);
  core::save_detector_file(detector, model_path);
  std::printf("model saved to %s (%zu selected features, %zu centroids)\n",
              model_path.c_str(), detector.selected_features().size(),
              detector.centroids().size());
  return 0;
}

int cmd_diagnose(const Args& args) {
  if (flag_set(args, "help")) {
    print_diagnose_usage();
    return 0;
  }
  const core::DetectorModel model =
      core::load_detector_file(require_option(args, "model"));
  if (args.positional.empty()) {
    log_error("no WAV files given");
    return 1;
  }
  core::EarSonar pipeline;
  AsciiTable table({"recording", "diagnosis", "confidence", "echoes"});
  for (const std::string& path : args.positional) {
    const audio::Waveform wav = audio::read_wav(path);
    const core::EchoAnalysis analysis = pipeline.analyze(wav);
    if (!analysis.usable()) {
      table.add_row({fs::path(path).filename().string(), "(no echo)", "-", "0"});
      continue;
    }
    const core::Diagnosis d = model.predict(analysis.features);
    table.add_row({fs::path(path).filename().string(), core::kMeeStateNames[d.state],
                   AsciiTable::format(d.confidence, 2),
                   std::to_string(analysis.echoes.size())});
  }
  table.print(std::cout);
  return 0;
}

int cmd_inspect(const Args& args) {
  if (flag_set(args, "help")) {
    print_inspect_usage();
    return 0;
  }
  if (args.positional.empty()) {
    log_error("no WAV file given");
    return 1;
  }
  const audio::Waveform wav = audio::read_wav(args.positional.front());
  std::printf("%s: %zu samples @ %.0f Hz (%.2f s), rms %.4f, peak %.4f\n",
              args.positional.front().c_str(), wav.size(), wav.sample_rate(),
              wav.duration_seconds(), wav.rms(), wav.peak());

  core::EarSonar pipeline;
  const core::EchoAnalysis analysis = pipeline.analyze(wav);
  std::printf("events: %zu, echoes: %zu\n", analysis.events.size(),
              analysis.echoes.size());
  if (!analysis.echoes.empty()) {
    std::printf("eardrum distance estimate: %.1f mm (parity ratio %.2f)\n",
                analysis.echoes.front().distance_m * 1000.0,
                analysis.echoes.front().parity_ratio);
  }
  if (analysis.usable()) {
    std::printf("\necho power spectrum (normalized):\n");
    const auto norm = dsp::normalize_peak(analysis.mean_spectrum);
    for (std::size_t i = 0; i < norm.size(); i += 16) {
      const int bar = static_cast<int>(norm.psd[i] * 40);
      std::printf("  %5.2f kHz |%s\n", norm.frequency_hz[i] / 1000.0,
                  std::string(static_cast<std::size_t>(bar), '#').c_str());
    }
  }

  // Chirp frequency ladder (Fig. 6-style) from the first 25 ms.
  if (wav.size() >= 1200) {
    dsp::StftConfig stft_cfg;
    stft_cfg.window_length = 64;
    stft_cfg.hop = 16;
    stft_cfg.fft_size = 256;
    const auto gram = dsp::stft(
        std::span<const double>(wav.samples()).subspan(0, 1200), wav.sample_rate(),
        stft_cfg);
    const auto track = dsp::peak_frequency_track(gram);
    std::printf("\npeak-frequency track of the first 25 ms (kHz):");
    for (std::size_t i = 0; i < track.size(); i += 4)
      std::printf(" %.1f", track[i] / 1000.0);
    std::printf("\n");
  }

  std::printf("\nstage timings:");
  for (std::size_t s = 0; s < earsonar::pipeline::kStageCount; ++s)
    std::printf("%s %s %.2f ms", s ? "," : "", earsonar::pipeline::stage_names()[s],
                analysis.timings.ms[s]);
  std::printf("\n");
  return 0;
}

int cmd_analyze(const Args& args) {
  if (flag_set(args, "help")) {
    print_analyze_usage();
    return 0;
  }
  const bool simulate = flag_set(args, "simulate");
  if (args.positional.empty() && !simulate) {
    log_error("no WAV files given (pass --simulate to analyze a synthetic recording)");
    return 1;
  }

  std::optional<core::DetectorModel> model;
  if (args.options.count("model") > 0) {
    model = core::load_detector_file(args.options.at("model"));
    log_info("model loaded from ", args.options.at("model"));
  }

  std::vector<std::pair<std::string, audio::Waveform>> inputs;
  for (const std::string& path : args.positional)
    inputs.emplace_back(fs::path(path).filename().string(), audio::read_wav(path));

  if (simulate) {
    const std::uint64_t seed = std::stoull(option_or(args, "seed", "42"));
    sim::CohortConfig cfg;
    cfg.subject_count = 2;  // 2 subjects x 4 states = 8 recordings
    cfg.sessions_per_state = 1;
    cfg.probe.chirp_count = 30;
    cfg.seed = seed;
    log_info("simulating recordings (seed ", seed, ")");
    const auto cohort = sim::CohortGenerator(cfg).generate();
    inputs.emplace_back("simulated", cohort.front().waveform);
    if (!model) {
      // Fit a throwaway detector on the tiny cohort so the report (and a
      // --trace-out capture) covers the inference stage too.
      log_info("fitting a throwaway detector on ", cohort.size(),
               " simulated recordings");
      std::vector<audio::Waveform> waves;
      std::vector<std::size_t> labels;
      for (const auto& rec : cohort) {
        waves.push_back(rec.waveform);
        labels.push_back(sim::state_index(rec.state));
      }
      core::EarSonar trainer;
      trainer.fit(waves, labels);
      model = core::snapshot(trainer.detector());
    }
  }

  core::EarSonar pipeline;
  std::vector<std::string> header = {"recording", "events", "echoes"};
  for (const char* stage : earsonar::pipeline::stage_names())
    header.push_back(std::string(stage) + " ms");
  header.push_back("diagnosis");
  AsciiTable table(std::move(header));
  for (const auto& [name, wav] : inputs) {
    core::EchoAnalysis analysis = pipeline.analyze(wav);
    std::string diagnosis = "(no echo)";
    if (model && analysis.usable()) {
      core::StageClock clock(earsonar::pipeline::StageId::kInference, analysis.timings);
      const core::Diagnosis d = model->predict(analysis.features);
      clock.end();
      std::ostringstream label;
      label << core::kMeeStateNames[d.state] << " (" << AsciiTable::format(d.confidence, 2)
            << ")";
      diagnosis = label.str();
    } else if (analysis.usable()) {
      diagnosis = "-";
    }
    std::vector<std::string> row = {name, std::to_string(analysis.events.size()),
                                    std::to_string(analysis.echoes.size())};
    for (const double stage_ms : analysis.timings.ms)
      row.push_back(AsciiTable::format(stage_ms, 2));
    row.push_back(diagnosis);
    table.add_row(std::move(row));
  }
  table.print(std::cout);
  return 0;
}

int cmd_serve(const Args& args) {
  if (flag_set(args, "help")) {
    print_serve_usage();
    return 0;
  }
  const std::string model_path = require_option(args, "model");
  const fs::path watch_dir = require_option(args, "watch");
  const bool once = flag_set(args, "once");
  const bool verbose = flag_set(args, "verbose");
  const auto interval =
      std::chrono::milliseconds(std::stol(option_or(args, "interval-ms", "500")));
  const double deadline_ms = std::stod(option_or(args, "deadline-ms", "0"));

  serve::EngineConfig cfg;
  cfg.workers = static_cast<std::size_t>(std::stoul(option_or(args, "threads", "2")));
  cfg.queue_capacity =
      static_cast<std::size_t>(std::stoul(option_or(args, "queue", "64")));
  cfg.chunk_samples =
      static_cast<std::size_t>(std::stoul(option_or(args, "chunk", "480")));
  cfg.batch_max =
      static_cast<std::size_t>(std::stoul(option_or(args, "batch-max", "1")));
  cfg.batch_wait_us =
      static_cast<std::size_t>(std::stoul(option_or(args, "batch-wait-us", "200")));
  // Streaming ingestion is causal by construction; the default pipeline's
  // zero-phase filtering has no chunked form.
  cfg.session.pipeline.preprocess.zero_phase = false;

  serve::ServingEngine engine(cfg);
  const std::uint64_t v0 = engine.registry().load_file(model_path);
  log_info("model v", v0, " loaded from ", model_path);
  engine.start();
  log_info("serving ", watch_dir.string(), " with ", cfg.workers,
           " workers (queue ", cfg.queue_capacity, ", chunk ", cfg.chunk_samples,
           " samples)");

  // Self-healing hot swap: the reloader watches the model file's mtime and,
  // when a rewrite fails to parse, retries with exponential backoff while the
  // engine keeps serving the last good model. Retries feed the
  // `model_reload_retries` metric.
  serve::ReloaderConfig reloader_cfg;
  // Jitter the retry schedule: several engines watching the same exported
  // model file should not re-stat and re-parse a broken write in lockstep.
  reloader_cfg.jitter = 0.1;
  serve::ModelReloader reloader(engine.registry(), model_path, reloader_cfg,
                                &engine.metrics().model_reload_retries);
  std::set<std::string> seen;
  std::vector<std::pair<std::string, std::future<serve::ServeResult>>> pending;

  const auto report = [](const serve::ServeResult& r) {
    if (!r.error.empty()) {
      std::printf("%-24s error: %s\n", r.id.c_str(), r.error.c_str());
    } else if (!r.diagnosis) {
      std::printf("%-24s (no echo)  events=%zu  total=%.1f ms\n", r.id.c_str(),
                  r.events, r.total_ms);
    } else {
      std::printf("%-24s %-8s conf=%.2f  echoes=%zu  model=v%llu  total=%.1f ms\n",
                  r.id.c_str(), core::kMeeStateNames[r.diagnosis->state],
                  r.diagnosis->confidence, r.echoes,
                  static_cast<unsigned long long>(r.model_version), r.total_ms);
    }
  };

  for (;;) {
    switch (reloader.poll()) {
      case serve::ModelReloader::Status::kReloaded:
        log_info("model hot-swapped to v", engine.registry().version());
        break;
      case serve::ModelReloader::Status::kFailedWillRetry:
        log_warn("model reload failed (", reloader.last_error(), "); keeping v",
                 engine.registry().version(), ", retrying in ",
                 reloader.current_backoff_ms(), " ms");
        break;
      case serve::ModelReloader::Status::kUnchanged:
      case serve::ModelReloader::Status::kBackingOff:
        break;
    }

    for (const fs::directory_entry& entry : fs::directory_iterator(watch_dir)) {
      if (!entry.is_regular_file() || entry.path().extension() != ".wav") continue;
      const std::string name = entry.path().filename().string();
      if (seen.count(name) > 0) continue;
      seen.insert(name);
      serve::ServeRequest request;
      request.id = name;
      request.timeout_ms = deadline_ms;
      try {
        request.recording = audio::read_wav(entry.path().string());
      } catch (const std::exception& e) {
        log_warn(name, ": unreadable (", e.what(), ")");
        continue;
      }
      serve::Submission sub = engine.submit(std::move(request));
      if (!sub.accepted) {
        // Backpressure: leave the file unseen so the next scan retries it.
        log_warn(name, ": rejected (", sub.reason, "), will retry");
        seen.erase(name);
        continue;
      }
      pending.emplace_back(name, std::move(sub.result));
    }

    std::erase_if(pending, [&](auto& entry) {
      if (entry.second.wait_for(std::chrono::seconds(0)) != std::future_status::ready)
        return false;
      report(entry.second.get());
      return true;
    });

    if (once) break;
    std::this_thread::sleep_for(interval);
  }

  for (auto& [name, future] : pending) report(future.get());
  engine.stop();
  if (verbose) std::printf("\n%s", engine.metrics_snapshot().c_str());
  return 0;
}

int cmd_serve_net(const Args& args) {
  if (flag_set(args, "help")) {
    print_serve_net_usage();
    return 0;
  }
  net::NetServerConfig cfg;
  cfg.host = option_or(args, "host", "127.0.0.1");
  cfg.port = static_cast<std::uint16_t>(std::stoul(option_or(args, "port", "0")));
  cfg.max_connections =
      static_cast<std::size_t>(std::stoul(option_or(args, "max-connections", "256")));
  cfg.default_deadline_ms = std::stod(option_or(args, "deadline-ms", "0"));
  cfg.shards.shards =
      static_cast<std::size_t>(std::stoul(option_or(args, "shards", "4")));
  cfg.shards.max_sessions_per_shard =
      static_cast<std::size_t>(std::stoul(option_or(args, "max-sessions", "64")));
  cfg.shards.engine.workers =
      static_cast<std::size_t>(std::stoul(option_or(args, "shard-workers", "1")));
  cfg.shards.engine.queue_capacity =
      static_cast<std::size_t>(std::stoul(option_or(args, "queue", "64")));
  cfg.shards.engine.batch_max =
      static_cast<std::size_t>(std::stoul(option_or(args, "batch-max", "1")));
  cfg.shards.engine.batch_wait_us = static_cast<std::size_t>(
      std::stoul(option_or(args, "batch-wait-us", "200")));
  // Networked sessions stream chunks; the pipeline must be causal.
  cfg.shards.engine.session.pipeline.preprocess.zero_phase = false;
  cfg.enable_admin = flag_set(args, "admin");
  const double duration_s = std::stod(option_or(args, "duration-s", "0"));

  net::NetServer server(cfg);
  const std::string model_path = option_or(args, "model", "");
  if (!model_path.empty()) {
    server.shards().install_model(core::load_detector_file(model_path),
                                  model_path);
    log_info("model loaded into ", cfg.shards.shards, " shard(s) from ",
             model_path);
  }
  server.start();
  std::printf("serve-net listening on %s:%u (%zu shards, %zu sessions/shard)\n",
              cfg.host.c_str(), server.port(), cfg.shards.shards,
              cfg.shards.max_sessions_per_shard);
  std::fflush(stdout);

  if (!flag_set(args, "once")) {
    if (duration_s > 0.0) {
      std::this_thread::sleep_for(std::chrono::duration<double>(duration_s));
    } else {
      for (;;) std::this_thread::sleep_for(std::chrono::hours(1));
    }
  }
  server.stop();
  if (flag_set(args, "verbose")) {
    for (std::size_t s = 0; s < server.shards().shard_count(); ++s) {
      const auto engine = server.shards().engine(s);
      if (engine)
        std::printf("\n--- shard %zu ---\n%s", s,
                    engine->metrics_snapshot().c_str());
    }
    std::printf("\n%s", server.shards().metrics_text().c_str());
  }
  return 0;
}

int cmd_loadgen(const Args& args) {
  if (flag_set(args, "help")) {
    print_loadgen_usage();
    return 0;
  }
  net::LoadGenConfig cfg;
  cfg.port = static_cast<std::uint16_t>(std::stoul(require_option(args, "port")));
  cfg.host = option_or(args, "host", "127.0.0.1");
  cfg.sessions =
      static_cast<std::size_t>(std::stoul(option_or(args, "sessions", "64")));
  cfg.concurrency =
      static_cast<std::size_t>(std::stoul(option_or(args, "concurrency", "8")));
  cfg.open_loop = flag_set(args, "open-loop");
  cfg.arrival_rate_hz = std::stod(option_or(args, "rate", "8"));
  cfg.diurnal = flag_set(args, "diurnal");
  cfg.diurnal_peak_to_trough = std::stod(option_or(args, "peak-trough", "4"));
  cfg.population =
      static_cast<std::size_t>(std::stoul(option_or(args, "population", "16")));
  cfg.chirp_count =
      static_cast<std::size_t>(std::stoul(option_or(args, "chirps", "6")));
  cfg.chunk_samples =
      static_cast<std::size_t>(std::stoul(option_or(args, "chunk", "4800")));
  cfg.time_scale = std::stod(option_or(args, "time-scale", "0"));
  cfg.deadline_ms = std::stod(option_or(args, "deadline-ms", "0"));
  cfg.seed = std::stoull(option_or(args, "seed", "42"));
  cfg.connect_timeout_ms = std::stoi(option_or(args, "connect-timeout-ms", "0"));
  cfg.read_timeout_ms = std::stoi(option_or(args, "read-timeout-ms", "0"));
  cfg.max_attempts =
      static_cast<std::size_t>(std::stoul(option_or(args, "max-attempts", "1")));
  cfg.retry_budget_ms = std::stod(option_or(args, "retry-budget-ms", "0"));
  cfg.chaos = flag_set(args, "chaos");
  cfg.chaos_events = static_cast<std::size_t>(
      std::stoul(option_or(args, "chaos-events", "3")));
  cfg.chaos_seed = std::stoull(option_or(args, "chaos-seed", "7"));
  if (cfg.chaos && cfg.max_attempts == 1) {
    // A drill without retries would count every lifecycle blip as a session
    // loss; the drill measures recovery, so give clients the retry contract.
    cfg.max_attempts = 4;
  }

  const net::LoadReport report = net::run_loadgen(cfg);
  if (flag_set(args, "json")) {
    std::printf("%s\n", report.json().c_str());
  } else {
    std::printf("%s", report.text().c_str());
  }
  if (cfg.chaos && !(report.accounting_ok && report.all_healthy)) {
    // The drill's contract: every session accounted for, every surviving
    // shard healthy again. Either miss is a failed drill.
    std::fprintf(stderr, "chaos drill FAILED: accounting_ok=%d all_healthy=%d\n",
                 report.accounting_ok ? 1 : 0, report.all_healthy ? 1 : 0);
    return 1;
  }
  if (!report.accounting_ok) {
    // Broken accounting (sessions vanished, a per-type slice that does not
    // reconcile, or attempted > 0 with nothing completed) must never exit 0
    // — a fully-rejected run is a failed run even outside a chaos drill.
    std::fprintf(stderr, "loadgen accounting FAILED: attempted=%zu completed=%zu "
                 "rejected=%zu errored=%zu transport=%zu\n",
                 report.attempted, report.completed, report.rejected,
                 report.errored, report.transport_failures);
    return 1;
  }
  return 0;
}

int cmd_longitudinal(const Args& args) {
  if (flag_set(args, "help")) {
    print_longitudinal_usage();
    return 0;
  }
  sim::TrajectoryConfig tc;
  tc.subject_count =
      static_cast<std::size_t>(std::stoul(option_or(args, "subjects", "112")));
  tc.days = static_cast<std::size_t>(std::stoul(option_or(args, "days", "20")));
  tc.seed = std::stoull(option_or(args, "seed", "42"));
  tc.onset_probability = std::stod(option_or(args, "onset-prob", "0.85"));
  tc.threads =
      static_cast<std::size_t>(std::stoul(option_or(args, "threads", "0")));

  longitudinal::CohortAnalysisConfig cc;
  cc.cusum.baseline_sessions =
      static_cast<std::size_t>(std::stoul(option_or(args, "baseline", "6")));
  cc.cusum.threshold = std::stod(option_or(args, "cusum-h", "5"));
  cc.cusum.drift = std::stod(option_or(args, "cusum-k", "0.5"));
  cc.match_window =
      static_cast<std::size_t>(std::stoul(option_or(args, "match-window", "12")));
  cc.threads = tc.threads;

  log_info("synthesizing ", tc.subject_count, " trajectories over ", tc.days,
           " days (seed ", tc.seed, ")");
  const auto cohort = sim::TrajectoryGenerator(tc).generate();
  obs::Span span("analyze_cohort", "longitudinal");
  const longitudinal::CohortCpdReport report =
      longitudinal::analyze_cohort(cohort, cc);
  span.end();
  std::printf("%s", report.text().c_str());
  return 0;
}

void print_usage() {
  std::printf(
      "earsonar — acoustic middle-ear-effusion screening (ICDCS'23 reproduction)\n"
      "\n"
      "usage:\n"
      "  earsonar simulate --out DIR [--subjects N] [--seed S]\n"
      "  earsonar train    --data DIR --model FILE\n"
      "  earsonar diagnose --model FILE WAV...\n"
      "  earsonar inspect  WAV\n"
      "  earsonar analyze  [WAV...] [--simulate] [--model FILE] [--seed S]\n"
      "  earsonar serve    --model FILE --watch DIR [--threads N] [--queue N]\n"
      "                    [--chunk N] [--interval-ms M] [--deadline-ms M]\n"
      "                    [--once] [--verbose]\n"
      "  earsonar serve-net [--port P] [--shards N] [--max-sessions N]\n"
      "                    [--max-connections N] [--model FILE] [--admin]\n"
      "                    [--duration-s S]\n"
      "  earsonar loadgen  --port P [--sessions N] [--concurrency N]\n"
      "                    [--open-loop --rate HZ [--diurnal]] [--chaos]\n"
      "                    [--max-attempts N] [--retry-budget-ms M] [--json]\n"
      "  earsonar longitudinal [--subjects N] [--days D] [--seed S]\n"
      "                    [--cusum-h H] [--cusum-k K] [--threads T]\n"
      "\n"
      "global options (every command):\n"
      "  --trace-out FILE  capture an obs trace of the run and write it as\n"
      "                    Chrome-trace/Perfetto JSON on exit\n"
      "  --log-level LVL   narration verbosity: debug|info|warn|error|off [info]\n"
      "\n"
      "`earsonar COMMAND --help` describes each command's options; docs/cli.md\n"
      "is the full reference.\n");
}

int dispatch(const std::string& command, const Args& args) {
  if (command == "simulate") return cmd_simulate(args);
  if (command == "train") return cmd_train(args);
  if (command == "diagnose") return cmd_diagnose(args);
  if (command == "inspect") return cmd_inspect(args);
  if (command == "analyze") return cmd_analyze(args);
  if (command == "serve") return cmd_serve(args);
  if (command == "serve-net") return cmd_serve_net(args);
  if (command == "loadgen") return cmd_loadgen(args);
  if (command == "longitudinal") return cmd_longitudinal(args);
  print_usage();
  return command == "help" || command == "--help" ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    print_usage();
    return 1;
  }
  const std::string command = argv[1];
  std::string trace_out;
  int rc = 1;
  try {
    const Args args = parse_args(argc, argv, 2);
    if (args.options.count("log-level") > 0) {
      const std::string& name = args.options.at("log-level");
      const std::optional<LogLevel> level = parse_log_level(name);
      if (!level) throw std::invalid_argument("unknown --log-level '" + name + "'");
      set_log_level(*level);
    }
    trace_out = option_or(args, "trace-out", "");
    if (!trace_out.empty()) obs::TraceRecorder::instance().enable();
    rc = dispatch(command, args);
  } catch (const std::exception& e) {
    log_error(e.what());
    rc = 1;
  }
  if (!trace_out.empty()) {
    // Flush the trace even when the command failed: a profile of the failing
    // run is exactly what the operator wants to look at.
    try {
      obs::TraceRecorder& recorder = obs::TraceRecorder::instance();
      recorder.write_chrome_json(trace_out);
      log_info("trace written to ", trace_out, " (", recorder.size(),
               " spans); open in chrome://tracing or https://ui.perfetto.dev");
    } catch (const std::exception& e) {
      log_error("trace export failed: ", e.what());
      rc = 1;
    }
  }
  return rc;
}
