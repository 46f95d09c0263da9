// SIMD dispatch-parity tests (ctest label `simd`).
//
// The dispatch contract (src/dsp/simd.hpp) is that kernel_set(kScalar) — the
// Pack emulation at the native lane geometry — produces BIT-IDENTICAL output
// to kernel_set(kNative) for every kernel, because both instantiate the same
// templated operation sequence. These tests
// exercise every KernelSet entry point on both levels and compare bitwise
// (the `dsp.simd.dispatch` oracle pair, tolerance {0, 0}).
//
// Also covered here:
//   * dsp.biquad.interleaved — MultiBiquadCascade vs per-channel
//     BiquadCascade, bit-exact, including partial lanes and carried state;
//   * StreamingSession::feed_many vs sequential feed(), bit-exact at chunk
//     sizes {1, 64, 480, whole}.
//
// tests/CMakeLists.txt registers this binary twice — once with
// EARSONAR_SIMD=scalar and once with =native — so the env-dispatched
// `active()` path runs under both levels in CI.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <numbers>
#include <span>
#include <string>
#include <vector>

#include "check/tolerance.hpp"
#include "common/rng.hpp"
#include "core/pipeline.hpp"
#include "dsp/biquad.hpp"
#include "dsp/butterworth.hpp"
#include "dsp/fft_plan.hpp"
#include "dsp/multibiquad.hpp"
#include "dsp/simd.hpp"
#include "serve/streaming.hpp"
#include "sim/dataset.hpp"
#include "sim/probe.hpp"

namespace earsonar {
namespace {

using check::CompareResult;
using dsp::simd::KernelSet;
using dsp::simd::Level;

constexpr std::uint64_t kSeed = 0x51D0'15AAULL;

std::vector<double> random_vector(std::size_t n, std::uint64_t seed,
                                  double lo = -1.0, double hi = 1.0) {
  Rng rng(seed);
  std::vector<double> v(n);
  for (double& x : v) x = rng.uniform(lo, hi);
  return v;
}

// Builds the interleaved radix-2 twiddle table in FftPlan's layout: the
// stage with half-length h keeps its h complex twiddles exp(-i*pi*k/h) at
// scalar offset 2h. Total 2n scalars (entry 0..1 unused).
std::vector<double> twiddle_table(std::size_t n) {
  std::vector<double> w(2 * n, 0.0);
  for (std::size_t h = 1; h < n; h <<= 1) {
    const double angle = -std::numbers::pi / static_cast<double>(h);
    for (std::size_t k = 0; k < h; ++k) {
      const double a = angle * static_cast<double>(k);
      w[2 * (h + k)] = std::cos(a);
      w[2 * (h + k) + 1] = std::sin(a);
    }
  }
  return w;
}

void expect_bitwise_equal(std::span<const double> got, std::span<const double> want,
                          const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i)
    ASSERT_EQ(got[i], want[i]) << what << " lane " << i
                               << " differs between dispatch levels";
}

// ------------------------------------------------ per-kernel dispatch parity

TEST(SimdDispatchTest, LevelsResolveAndReportLanes) {
  const KernelSet& native = dsp::simd::kernel_set(Level::kNative);
  const KernelSet& scalar = dsp::simd::kernel_set(Level::kScalar);
  EXPECT_GE(native.lanes_d, 2u);
  EXPECT_EQ(scalar.lanes_d, native.lanes_d)
      << "scalar twin must match the native lane geometry for bit parity";
  EXPECT_STREQ(dsp::simd::native_arch(), native.name);
}

TEST(SimdDispatchTest, ButterfliesBitIdenticalAcrossLevels) {
  const check::Tolerance tol = check::pair_policy("dsp.simd.dispatch").tol;
  for (std::size_t n : {1ul, 2ul, 4ul, 8ul, 64ul, 512ul, 4096ul}) {
    const std::vector<double> input = random_vector(2 * n, kSeed + n);
    const std::vector<double> wd = twiddle_table(n);
    std::vector<double> a = input, b = input;
    dsp::simd::kernel_set(Level::kNative).butterflies_d(a.data(), wd.data(), n);
    dsp::simd::kernel_set(Level::kScalar).butterflies_d(b.data(), wd.data(), n);
    const CompareResult r = check::compare_vectors(a, b, tol);
    EXPECT_TRUE(r.ok) << "n=" << n << ": "
                      << check::describe_failure("dsp.simd.dispatch", r);
  }
}

TEST(SimdDispatchTest, PowerBinsBitIdenticalAcrossLevels) {
  for (std::size_t m : {1ul, 3ul, 8ul, 257ul}) {
    const std::vector<double> bins = random_vector(2 * m, kSeed + 11 * m);
    std::vector<double> a(m), b(m);
    dsp::simd::kernel_set(Level::kNative)
        .power_bins_d(bins.data(), a.data(), m, 0.125);
    dsp::simd::kernel_set(Level::kScalar)
        .power_bins_d(bins.data(), b.data(), m, 0.125);
    expect_bitwise_equal(a, b, "power_bins_d");
  }
}

TEST(SimdDispatchTest, MulAndDotBitIdenticalAcrossLevels) {
  for (std::size_t n : {1ul, 7ul, 16ul, 1023ul}) {
    const std::vector<double> x = random_vector(n, kSeed + 3 * n);
    const std::vector<double> y = random_vector(n, kSeed + 5 * n);
    std::vector<double> a(n), b(n);
    dsp::simd::kernel_set(Level::kNative).mul_d(a.data(), x.data(), y.data(), n);
    dsp::simd::kernel_set(Level::kScalar).mul_d(b.data(), x.data(), y.data(), n);
    expect_bitwise_equal(a, b, "mul_d");
  }
}

TEST(SimdDispatchTest, BiquadInterleavedBitIdenticalAcrossLevels) {
  const KernelSet& native = dsp::simd::kernel_set(Level::kNative);
  const KernelSet& scalar = dsp::simd::kernel_set(Level::kScalar);
  const std::size_t w = native.lanes_d;
  const std::size_t frames = 300;
  const std::vector<double> input = random_vector(frames * w, kSeed + 77);
  const double coef[5] = {0.2, 0.4, 0.2, -1.1, 0.45};
  std::vector<double> a = input, b = input;
  std::vector<double> z1a(w, 0.0), z2a(w, 0.0), z1b(w, 0.0), z2b(w, 0.0);
  native.biquad_interleaved_d(a.data(), frames, coef, z1a.data(), z2a.data());
  scalar.biquad_interleaved_d(b.data(), frames, coef, z1b.data(), z2b.data());
  expect_bitwise_equal(a, b, "biquad_interleaved_d frames");
  expect_bitwise_equal(z1a, z1b, "biquad_interleaved_d z1");
  expect_bitwise_equal(z2a, z2b, "biquad_interleaved_d z2");
}

// The four-section wavefront (a four-lane set's biquad_wavefront4_d) against
// the other level and against the sample-major cascade
// (BiquadCascade::process_sample), bitwise: forward and back to front, fed in
// chunks with the delay lines carried across every split.
TEST(SimdDispatchTest, BiquadWavefrontBitIdenticalAcrossLevelsAndSampleMajor) {
  const KernelSet& native = dsp::simd::kernel_set(Level::kNative);
  const KernelSet& scalar = dsp::simd::kernel_set(Level::kScalar);
  if (native.lanes_d != 4) {
    EXPECT_EQ(native.biquad_wavefront4_d, nullptr);
    EXPECT_EQ(scalar.biquad_wavefront4_d, nullptr);
    return;
  }
  ASSERT_NE(native.biquad_wavefront4_d, nullptr);
  ASSERT_NE(scalar.biquad_wavefront4_d, nullptr);
  const dsp::BiquadCascade design =
      dsp::butterworth_bandpass(4, 15000.0, 21000.0, 48000.0);
  ASSERT_EQ(design.section_count(), 4u);
  double coef[20];
  for (std::size_t s = 0; s < 4; ++s) {
    const dsp::Biquad& b = design.sections()[s];
    coef[s] = b.b0;
    coef[4 + s] = b.b1;
    coef[8 + s] = b.b2;
    coef[12 + s] = b.a1;
    coef[16 + s] = b.a2;
  }
  const std::vector<double> input = random_vector(9607, kSeed + 4);
  const std::size_t n = input.size();
  for (bool reverse : {false, true}) {
    dsp::BiquadCascade reference(design.sections());
    std::vector<double> want = input;
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t j = reverse ? n - 1 - i : i;
      want[j] = reference.process_sample(want[j]);
    }
    for (std::size_t chunk : {1ul, 2ul, 3ul, 4ul, 5ul, 480ul, 4800ul}) {
      for (const KernelSet* set : {&native, &scalar}) {
        std::vector<double> got = input;
        double z1[4] = {}, z2[4] = {};
        for (std::size_t pos = 0; pos < n; pos += chunk) {
          const std::size_t len = std::min(chunk, n - pos);
          double* first = reverse ? got.data() + (n - 1 - pos) : got.data() + pos;
          set->biquad_wavefront4_d(first, reverse ? -1 : 1, len, coef, z1, z2);
        }
        SCOPED_TRACE(std::string(set->name) + (reverse ? " reverse" : " forward") +
                     " chunk=" + std::to_string(chunk));
        expect_bitwise_equal(got, want, "biquad_wavefront4_d samples");
        for (std::size_t s = 0; s < 4; ++s) {
          ASSERT_EQ(z1[s], reference.state()[s].z1) << "section " << s;
          ASSERT_EQ(z2[s], reference.state()[s].z2) << "section " << s;
        }
      }
    }
  }
}

// --------------------------------------- interleaved multi-channel cascade

TEST(MultiBiquadTest, MatchesPerChannelCascadeBitExact) {
  const check::Tolerance tol = check::pair_policy("dsp.biquad.interleaved").tol;
  const dsp::BiquadCascade design =
      dsp::butterworth_bandpass(4, 14000.0, 21000.0, 48000.0);
  for (std::size_t channels : {1ul, 2ul, 3ul, 5ul, 9ul}) {
    for (std::size_t n : {1ul, 17ul, 997ul}) {
      std::vector<std::vector<double>> inputs(channels);
      for (std::size_t c = 0; c < channels; ++c)
        inputs[c] = random_vector(n, kSeed + 101 * channels + c);

      dsp::MultiBiquadCascade multi(design.sections(), channels);
      std::vector<std::vector<double>> outs(channels, std::vector<double>(n));
      std::vector<std::span<const double>> ins(channels);
      std::vector<std::span<double>> out_spans(channels);
      for (std::size_t c = 0; c < channels; ++c) {
        ins[c] = inputs[c];
        out_spans[c] = outs[c];
      }
      multi.process(ins, out_spans);

      for (std::size_t c = 0; c < channels; ++c) {
        dsp::BiquadCascade solo = design;
        const std::vector<double> want = solo.process(inputs[c]);
        const CompareResult r = check::compare_vectors(outs[c], want, tol);
        EXPECT_TRUE(r.ok) << "channels=" << channels << " n=" << n
                          << " channel " << c << ": "
                          << check::describe_failure("dsp.biquad.interleaved", r);
      }
    }
  }
}

TEST(MultiBiquadTest, ChannelStateCarriesAcrossCalls) {
  const dsp::BiquadCascade design =
      dsp::butterworth_bandpass(4, 14000.0, 21000.0, 48000.0);
  const std::size_t channels = 3, n = 400, split = 153;
  std::vector<std::vector<double>> inputs(channels);
  for (std::size_t c = 0; c < channels; ++c)
    inputs[c] = random_vector(n, kSeed + 211 + c);

  // One shot per channel (the reference)...
  std::vector<std::vector<double>> want(channels);
  for (std::size_t c = 0; c < channels; ++c) {
    dsp::BiquadCascade solo = design;
    want[c] = solo.process(inputs[c]);
  }

  // ...vs two multi passes with get/set_channel_state between them.
  dsp::MultiBiquadCascade first(design.sections(), channels);
  dsp::MultiBiquadCascade second(design.sections(), channels);
  std::vector<std::vector<double>> got(channels, std::vector<double>(n));
  auto run = [&](dsp::MultiBiquadCascade& multi, std::size_t from, std::size_t to) {
    std::vector<std::span<const double>> ins(channels);
    std::vector<std::span<double>> outs(channels);
    for (std::size_t c = 0; c < channels; ++c) {
      ins[c] = std::span<const double>(inputs[c]).subspan(from, to - from);
      outs[c] = std::span<double>(got[c]).subspan(from, to - from);
    }
    multi.process(ins, outs);
  };
  run(first, 0, split);
  for (std::size_t c = 0; c < channels; ++c) {
    std::vector<dsp::BiquadCascade::State> state(design.section_count());
    first.get_channel_state(c, state);
    second.set_channel_state(c, state);
  }
  run(second, split, n);

  for (std::size_t c = 0; c < channels; ++c)
    expect_bitwise_equal(got[c], want[c], "state handoff");
}

// --------------------------------------------- feed_many stream equivalence

// Same deterministic recording idiom as tests/serve_test.cpp.
audio::Waveform test_recording(std::uint64_t seed) {
  sim::SubjectFactory factory(42);
  sim::ProbeConfig pc;
  pc.chirp_count = 10;
  sim::EarProbe probe(pc);
  Rng rng(seed);
  return probe.record_state(factory.make(0), sim::EffusionState::kClear,
                            sim::reference_earphone(), {}, rng);
}

serve::StreamingConfig streaming_config() {
  serve::StreamingConfig cfg;
  cfg.pipeline.preprocess.zero_phase = false;
  return cfg;
}

TEST(FeedManyTest, BitIdenticalToSequentialFeedsAtEveryChunkSize) {
  const std::vector<audio::Waveform> recordings = {
      test_recording(7), test_recording(8), test_recording(9)};
  const std::size_t shortest =
      std::min({recordings[0].samples().size(), recordings[1].samples().size(),
                recordings[2].samples().size()});
  const core::EarSonar pipeline(streaming_config().pipeline);
  for (std::size_t chunk : {std::size_t{1}, std::size_t{64}, std::size_t{480},
                            shortest}) {
    std::vector<serve::StreamingSession> batched, sequential;
    for (std::size_t i = 0; i < recordings.size(); ++i) {
      batched.emplace_back(streaming_config());
      sequential.emplace_back(streaming_config());
    }
    // Feed in lockstep: one feed_many per step vs three feed() calls. The
    // shortest recording bounds the stepped region; tails go in one final
    // per-session pass so every session ingests its full recording.
    for (std::size_t start = 0; start < shortest; start += chunk) {
      std::vector<serve::StreamingSession*> sessions;
      std::vector<std::span<const double>> chunks;
      for (std::size_t i = 0; i < recordings.size(); ++i) {
        const std::size_t take = std::min(chunk, shortest - start);
        sessions.push_back(&batched[i]);
        chunks.push_back(std::span<const double>(recordings[i].samples())
                             .subspan(start, take));
        const serve::FeedStatus st = sequential[i].feed(chunks.back());
        ASSERT_EQ(st, serve::FeedStatus::kAccepted);
      }
      const std::vector<serve::FeedStatus> status =
          serve::StreamingSession::feed_many(sessions, chunks);
      for (serve::FeedStatus st : status) ASSERT_EQ(st, serve::FeedStatus::kAccepted);
    }
    for (std::size_t i = 0; i < recordings.size(); ++i) {
      const std::span<const double> tail =
          std::span<const double>(recordings[i].samples()).subspan(shortest);
      if (!tail.empty()) {
        batched[i].feed(tail);
        sequential[i].feed(tail);
      }
      ASSERT_EQ(batched[i].samples_fed(), sequential[i].samples_fed());
      ASSERT_EQ(batched[i].samples_buffered(), sequential[i].samples_buffered());
      const core::EchoAnalysis a = batched[i].finish(pipeline);
      const core::EchoAnalysis b = sequential[i].finish(pipeline);
      ASSERT_EQ(a.features.size(), b.features.size());
      expect_bitwise_equal(a.features, b.features, "finish features");
      EXPECT_EQ(a.events.size(), b.events.size());
    }
  }
}

TEST(FeedManyTest, MixedChunkLengthsFallBackToSingletonPasses) {
  const audio::Waveform rec = test_recording(11);
  std::vector<serve::StreamingSession> batched, sequential;
  for (int i = 0; i < 2; ++i) {
    batched.emplace_back(streaming_config());
    sequential.emplace_back(streaming_config());
  }
  // Different chunk lengths per session — cannot interleave, must still be
  // bit-identical through the singleton path.
  const std::span<const double> all(rec.samples());
  const std::vector<std::span<const double>> chunks = {all.first(1000),
                                                       all.first(777)};
  std::vector<serve::StreamingSession*> sessions = {&batched[0], &batched[1]};
  serve::StreamingSession::feed_many(sessions, chunks);
  sequential[0].feed(chunks[0]);
  sequential[1].feed(chunks[1]);
  for (int i = 0; i < 2; ++i)
    ASSERT_EQ(batched[i].samples_buffered(), sequential[i].samples_buffered());
}

TEST(FeedManyTest, RejectsOverflowPerSessionLikeFeed) {
  serve::StreamingConfig small = streaming_config();
  small.max_buffered_samples = 1024;
  serve::StreamingSession a(small), b(streaming_config());
  const std::vector<double> big(2048, 0.25);
  const std::vector<double> ok(256, 0.25);
  std::vector<serve::StreamingSession*> sessions = {&a, &b};
  std::vector<std::span<const double>> chunks = {big, ok};
  const std::vector<serve::FeedStatus> status =
      serve::StreamingSession::feed_many(sessions, chunks);
  EXPECT_EQ(status[0], serve::FeedStatus::kRejected);
  EXPECT_EQ(status[1], serve::FeedStatus::kAccepted);
  EXPECT_EQ(a.rejected_chunks(), 1u);
  EXPECT_EQ(a.samples_buffered(), 0u);
  EXPECT_EQ(b.samples_buffered(), 256u);
}

}  // namespace
}  // namespace earsonar
