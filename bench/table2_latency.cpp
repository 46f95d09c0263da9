// Table II: latency of the EarSonar pipeline stages, as google-benchmark
// microbenchmarks. The paper reports, on a smartphone: band-pass filter
// 1.32 ms, feature extraction 35.89 ms, inference 1.2 ms.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <span>
#include <vector>

#include "core/pipeline.hpp"
#include "dsp/envelope.hpp"
#include "sim/dataset.hpp"

using namespace earsonar;

namespace {

// Shared fixtures built once: a 1-second recording and a fitted detector.
struct LatencyFixture {
  LatencyFixture() {
    sim::SubjectFactory factory(42);
    subject = factory.make(0);
    sim::ProbeConfig pc;
    pc.chirp_count = 200;  // 1 s of probing, as a realistic app burst
    sim::EarProbe probe(pc);
    Rng rng(1);
    recording = probe.record_state(subject, sim::EffusionState::kSerous,
                                   sim::reference_earphone(), {}, rng);
    analysis = pipeline.analyze(recording);

    // Fit the detection head on a small cohort for the inference benchmark.
    sim::CohortConfig cc;
    cc.subject_count = 8;
    cc.sessions_per_state = 1;
    cc.probe.chirp_count = 10;
    const auto recs = sim::CohortGenerator(cc).generate();
    std::vector<audio::Waveform> waves;
    std::vector<std::size_t> labels;
    for (const auto& r : recs) {
      waves.push_back(r.waveform);
      labels.push_back(sim::state_index(r.state));
    }
    pipeline.fit(waves, labels);
  }

  core::EarSonar pipeline;
  sim::Subject subject;
  audio::Waveform recording;
  core::EchoAnalysis analysis;
};

LatencyFixture& fixture() {
  static LatencyFixture f;
  return f;
}

// The served shape: one 30-chirp (7,712-sample) recording, band-passed by
// the causal filter the serving pipeline runs, with its segmented echoes.
struct ServedFixture {
  ServedFixture() {
    sim::ProbeConfig pc;
    pc.chirp_count = 30;
    sim::EarProbe probe(pc);
    Rng rng(1);
    core::PipelineConfig config;
    config.preprocess.zero_phase = false;
    const core::EarSonar pipeline(config);
    recording = probe.record_state(fixture().subject, sim::EffusionState::kSerous,
                                   sim::reference_earphone(), {}, rng);
    filtered = core::Preprocessor(config.preprocess).process(recording);
    echoes = pipeline.analyze(recording).echoes;
  }

  audio::Waveform recording;
  audio::Waveform filtered;
  std::vector<core::EchoSegment> echoes;
};

ServedFixture& served() {
  static ServedFixture f;
  return f;
}

void BM_BandpassFilter(benchmark::State& state) {
  const core::Preprocessor pre;
  for (auto _ : state)
    benchmark::DoNotOptimize(pre.process(fixture().recording));
}
BENCHMARK(BM_BandpassFilter)->Unit(benchmark::kMillisecond);

void BM_EventDetection(benchmark::State& state) {
  const core::AdaptiveEventDetector detector;
  const core::Preprocessor pre;
  const audio::Waveform filtered = pre.process(fixture().recording);
  for (auto _ : state)
    benchmark::DoNotOptimize(detector.detect(filtered));
}
BENCHMARK(BM_EventDetection)->Unit(benchmark::kMillisecond);

void BM_EventDetectionServed(benchmark::State& state) {
  const core::AdaptiveEventDetector detector;
  for (auto _ : state)
    benchmark::DoNotOptimize(detector.detect(served().filtered));
}
BENCHMARK(BM_EventDetectionServed)->Unit(benchmark::kMicrosecond);

// A streaming session's ingest of the served recording, one 480-sample chunk
// (10 ms) at a time: the causal band-pass with the event detector's power
// envelope folded as it filters (dsp::EnvelopeFold), from a fresh filter
// and fold per recording. The kernel is `earsonar_biquad_path`'s.
void BM_IngestServed(benchmark::State& state) {
  constexpr std::size_t kChunk = 480;
  const core::PreprocessConfig preprocess;
  const core::EventDetectorConfig events;
  const std::vector<double>& raw = served().recording.samples();
  std::vector<double> buffer(raw.size());
  std::vector<double> row(raw.size());
  for (auto _ : state) {
    dsp::BiquadCascade filter = core::Preprocessor(preprocess).streaming_filter(48000.0);
    dsp::EnvelopeFold fold(events.smooth, row.data());
    std::copy(raw.begin(), raw.end(), buffer.begin());
    for (std::size_t pos = 0; pos < buffer.size(); pos += kChunk)
      filter.process_in_place(
          std::span<double>(buffer).subspan(pos, std::min(kChunk, buffer.size() - pos)),
          &fold);
    benchmark::DoNotOptimize(buffer.data());
    benchmark::DoNotOptimize(fold.sum);
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_IngestServed)->Unit(benchmark::kMicrosecond);

void BM_EchoSegmentation(benchmark::State& state) {
  const core::ParityEchoSegmenter segmenter;
  const core::Preprocessor pre;
  const core::AdaptiveEventDetector detector;
  const audio::Waveform filtered = pre.process(fixture().recording);
  const auto events = detector.detect(filtered);
  for (auto _ : state) {
    for (const core::Event& e : events)
      benchmark::DoNotOptimize(segmenter.segment(filtered, e));
  }
}
BENCHMARK(BM_EchoSegmentation)->Unit(benchmark::kMillisecond);

void BM_FeatureExtraction(benchmark::State& state) {
  // Paper "Feature Extract": echo spectra + the 105-dim vector.
  const core::FeatureExtractor extractor;
  const core::Preprocessor pre;
  const audio::Waveform filtered = pre.process(fixture().recording);
  for (auto _ : state)
    benchmark::DoNotOptimize(extractor.extract(filtered, fixture().analysis.echoes));
}
BENCHMARK(BM_FeatureExtraction)->Unit(benchmark::kMillisecond);

// extract_all over one served recording's echoes: groups of four, the last
// one padded with zero lanes.
void BM_EchoPsdServed(benchmark::State& state) {
  const core::EchoSpectrumExtractor psd;
  state.counters["echoes"] = static_cast<double>(served().echoes.size());
  for (auto _ : state)
    benchmark::DoNotOptimize(psd.extract_all(served().filtered, served().echoes));
}
BENCHMARK(BM_EchoPsdServed)->Unit(benchmark::kMicrosecond);

// Feature assembly from the served recording's PSD rows (the features stage
// after the echo_psd pass): time-group means, their MFCCs, the mean
// spectrum and the 105-element vector.
void BM_FeaturesServed(benchmark::State& state) {
  const core::FeatureExtractor extractor;
  const std::vector<double> rows =
      extractor.spectrum_extractor().extract_all(served().filtered, served().echoes);
  const std::size_t echoes = served().echoes.size();
  state.counters["echoes"] = static_cast<double>(echoes);
  for (auto _ : state)
    benchmark::DoNotOptimize(extractor.extract_full_from_rows(echoes, rows));
}
BENCHMARK(BM_FeaturesServed)->Unit(benchmark::kMicrosecond);

void BM_Inference(benchmark::State& state) {
  for (auto _ : state)
    benchmark::DoNotOptimize(
        fixture().pipeline.diagnose_features(fixture().analysis.features));
}
BENCHMARK(BM_Inference)->Unit(benchmark::kMillisecond);

void BM_FullPipelineAnalyze(benchmark::State& state) {
  for (auto _ : state)
    benchmark::DoNotOptimize(fixture().pipeline.analyze(fixture().recording));
}
BENCHMARK(BM_FullPipelineAnalyze)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  benchmark::AddCustomContext(
      "earsonar_biquad_path",
      dsp::biquad_path(core::Preprocessor().streaming_filter(48000.0)));
  std::printf("Table II — per-stage latency (paper, on a smartphone: band-pass "
              "1.32 ms, feature extract 35.89 ms, inference 1.2 ms; ours runs "
              "on this machine over a 1 s / 200-chirp recording; *Served rows: one "
              "30-chirp recording through the causal band-pass)\n");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
