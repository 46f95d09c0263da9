// Differential oracle for the non-FFT DSP kernels: convolution and
// correlation (FFT path vs direct sums), Goertzel vs the literal DTFT,
// DCT-II vs the literal formula, the transposed biquad cascade vs a
// per-sample direct-form-I reference, the feature stage's band MFCC vs its
// textbook chain, and Welch PSD vs a naive segment-average. Includes the
// regression test for the Goertzel factor-of-N normalization this harness
// surfaced.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cmath>
#include <limits>
#include <numbers>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "check/cases.hpp"
#include "check/reference.hpp"
#include "check/tolerance.hpp"
#include "common/rng.hpp"
#include "core/features.hpp"
#include "core/pipeline.hpp"
#include "dsp/biquad.hpp"
#include "dsp/butterworth.hpp"
#include "dsp/convolution.hpp"
#include "dsp/dct.hpp"
#include "dsp/fft.hpp"
#include "dsp/goertzel.hpp"
#include "dsp/simd.hpp"
#include "dsp/spectrum.hpp"
#include "sim/dataset.hpp"
#include "sim/probe.hpp"

namespace earsonar {
namespace {

using check::CompareResult;
using check::Tolerance;

constexpr std::uint64_t kSeed = 0x0eac1e5eedULL;

void expect_pair(const char* pair, const std::vector<double>& got,
                 const std::vector<double>& want, const std::string& label) {
  const Tolerance tol = check::pair_policy(pair).tol;
  const CompareResult result = check::compare_vectors(got, want, tol);
  EXPECT_TRUE(result.ok) << label << ": " << check::describe_failure(pair, result);
}

// ------------------------------------------------------- convolution

TEST(OracleConvolutionTest, FftPathMatchesDirectSum) {
  for (const check::SignalCase& a : check::standard_cases(kSeed, 509)) {
    // Kernel length staggered against the signal length, never empty.
    const std::size_t klen = a.data.size() / 2 + 1;
    std::vector<double> kernel(klen);
    for (std::size_t i = 0; i < klen; ++i)
      kernel[i] = std::cos(0.7 * static_cast<double>(i)) / static_cast<double>(i + 1);
    expect_pair("dsp.convolve.fft", dsp::convolve_fft(a.data, kernel),
                check::convolve_naive(a.data, kernel), a.name);
    // The size-dispatching wrapper must agree with the same reference.
    expect_pair("dsp.convolve.fft", dsp::convolve(a.data, kernel),
                check::convolve_naive(a.data, kernel), a.name + "/dispatch");
  }
}

TEST(OracleConvolutionTest, AutoconvolveMatchesDirectSum) {
  for (const check::SignalCase& c : check::cases_for_size(251, kSeed)) {
    expect_pair("dsp.convolve.fft", dsp::autoconvolve(c.data),
                check::convolve_naive(c.data, c.data), c.name);
  }
}

TEST(OracleConvolutionTest, CrossCorrelateMatchesDirectSum) {
  for (const check::SignalCase& a : check::standard_cases(kSeed ^ 5, 509)) {
    const std::size_t blen = a.data.size() / 3 + 1;
    std::vector<double> b(a.data.begin(), a.data.begin() + static_cast<std::ptrdiff_t>(blen));
    for (std::size_t i = 0; i < blen; ++i) b[i] += 0.25 * std::sin(static_cast<double>(i));
    expect_pair("dsp.correlate.fft", dsp::cross_correlate(a.data, b),
                check::cross_correlate_naive(a.data, b), a.name);
  }
}

// ---------------------------------------------------------- goertzel

// Satellite regression: Goertzel vs the literal DTFT sum at bin-exact *and*
// off-bin frequencies, across the case family. Before the normalization fix
// this disagreed by a factor of N at every frequency.
TEST(OracleGoertzelTest, MagnitudeMatchesLiteralDtft) {
  for (const check::SignalCase& c : check::standard_cases(kSeed ^ 6, 1024)) {
    const double fs = 48000.0;
    const auto n = static_cast<double>(c.data.size());
    std::vector<double> got, want;
    std::vector<double> freqs = {0.0, fs / 2.0};                // DC and Nyquist
    if (c.data.size() >= 4) {
      freqs.push_back(std::floor(n / 4.0) * fs / n);            // bin-exact
      freqs.push_back((std::floor(n / 4.0) + 0.37) * fs / n);   // off-bin
      freqs.push_back(18000.0);                                 // the probe dip
    }
    for (double f : freqs) {
      got.push_back(dsp::goertzel_magnitude(c.data, f, fs));
      want.push_back(check::dtft_magnitude_naive(c.data, f, fs));
    }
    expect_pair("dsp.goertzel", got, want, c.name);
  }
}

TEST(OracleGoertzelTest, PowerMatchesPowerSpectrumNormalization) {
  const Tolerance tol = check::pair_policy("dsp.goertzel").tol;
  for (const check::SignalCase& c : check::cases_for_size(512, kSeed ^ 7)) {
    const std::vector<double> power = dsp::power_spectrum(c.data);
    for (std::size_t bin : {0UL, 96UL, 200UL, 256UL}) {
      const double f = dsp::bin_frequency(bin, c.data.size(), 48000.0);
      const double got = dsp::goertzel_power(c.data, f, 48000.0);
      const CompareResult r = check::compare_vectors({&got, 1}, {&power[bin], 1}, tol);
      EXPECT_TRUE(r.ok) << c.name << " bin " << bin << ": "
                        << check::describe_failure("dsp.goertzel", r);
    }
  }
}

// --------------------------------------------------------------- dct

TEST(OracleDctTest, MatchesLiteralFormulaAndInverts) {
  for (const check::SignalCase& c : check::standard_cases(kSeed ^ 8, 256)) {
    const std::vector<double> got = dsp::dct2(c.data);
    expect_pair("dsp.dct2", got, check::dct2_naive(c.data), c.name);
    expect_pair("dsp.dct2", dsp::idct2(got), c.data, c.name + "/roundtrip");
  }
}

// ------------------------------------------------------------ biquad

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

void expect_same_bits(const std::vector<double>& got, const std::vector<double>& want,
                      const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (std::size_t i = 0; i < got.size(); ++i)
    if (!same_bits(got[i], want[i])) {
      ADD_FAILURE() << label << ": first differing sample " << i << ": got " << got[i]
                    << ", sample-major " << want[i];
      return;
    }
}

// Band-pass inputs for the kernels' edge cases, 2,000 samples each: a burst
// of noise between stretches of exact zeros (+0, -0, or zeros of random
// sign, which leave zero delay lines of either sign), and noise with
// +inf, -inf or NaN at sample 700 (inside the second 480-sample chunk).
std::vector<std::pair<std::string, std::vector<double>>> bandpass_edge_signals() {
  constexpr std::size_t kN = 2000;
  Rng rng(kSeed ^ 11);
  std::vector<double> noise(kN);
  for (double& v : noise) v = rng.uniform(-1.0, 1.0);
  std::vector<std::pair<std::string, std::vector<double>>> out;
  const char* const zero_kinds[] = {"zero_stretches", "negative_zero_stretches",
                                    "random_sign_zero_stretches"};
  for (std::size_t kind = 0; kind < 3; ++kind) {
    std::vector<double> x = noise;
    for (std::size_t i = 0; i < kN; ++i) {
      if ((i >= 300 && i < 900) || i >= 1300) continue;  // the noise bursts
      const bool negative = kind == 1 || (kind == 2 && rng.uniform(-1.0, 1.0) < 0.0);
      x[i] = negative ? -0.0 : 0.0;
    }
    out.emplace_back(zero_kinds[kind], x);
  }
  const std::pair<const char*, double> bad[] = {
      {"inf_mid_chunk", std::numeric_limits<double>::infinity()},
      {"minus_inf_mid_chunk", -std::numeric_limits<double>::infinity()},
      {"nan_mid_chunk", std::numeric_limits<double>::quiet_NaN()}};
  for (const auto& [name, value] : bad) {
    std::vector<double> x = noise;
    x[700] = value;
    out.emplace_back(name, x);
  }
  return out;
}

TEST(OracleBiquadTest, CascadeMatchesPerSampleDirectForm1) {
  // The production 8-pole band-pass (poles near |z| = 1, worst case for
  // state-form divergence) plus a gentler low-pass.
  const std::vector<dsp::BiquadCascade> filters = {
      dsp::butterworth_bandpass(4, 15000.0, 21000.0, 48000.0),
      dsp::butterworth_lowpass(4, 4000.0, 48000.0),
  };
  for (const dsp::BiquadCascade& filter : filters) {
    for (const check::SignalCase& c : check::standard_cases(kSeed ^ 9, 1024)) {
      dsp::BiquadCascade streaming(filter.sections());
      expect_pair("dsp.biquad.block", streaming.process(c.data),
                  check::biquad_cascade_df1_naive(filter.sections(), c.data), c.name);
    }
  }
}

// Whatever kernel the section count and CPU select (the four-section
// wavefront on a four-lane set, in band-pass form for the designed
// band-pass, run_fixed<N> otherwise) must equal the
// sample-major per-sample cascade bit for bit, fed in chunks of any length
// with the delay lines carried across splits, and in filtfilt's reverse
// pass. The bound above is against direct form I; this one is exact.
TEST(OracleBiquadTest, BlockKernelsMatchSampleMajorCascadeBitwise) {
  const std::vector<dsp::BiquadCascade> filters = {
      dsp::butterworth_bandpass(4, 15000.0, 21000.0, 48000.0),  // 4 sections
      dsp::butterworth_bandpass(2, 15000.0, 21000.0, 48000.0),  // 2 sections
  };
  const check::Tolerance exact{0.0, 0.0};
  for (const dsp::BiquadCascade& filter : filters) {
    for (const check::SignalCase& c : check::standard_cases(kSeed ^ 10, 4801)) {
      const std::size_t n = c.data.size();
      dsp::BiquadCascade reference(filter.sections());
      std::vector<double> forward(n);
      for (std::size_t i = 0; i < n; ++i) forward[i] = reference.process_sample(c.data[i]);
      for (std::size_t chunk : {1UL, 2UL, 3UL, 4UL, 5UL, 480UL, 4800UL, n}) {
        dsp::BiquadCascade chunked(filter.sections());
        std::vector<double> got;
        got.reserve(n);
        for (std::size_t pos = 0; pos < n; pos += chunk) {
          const std::vector<double> piece = chunked.process(
              std::span<const double>(c.data).subspan(pos, std::min(chunk, n - pos)));
          got.insert(got.end(), piece.begin(), piece.end());
        }
        const std::string label = c.name + " sections=" +
                                  std::to_string(filter.section_count()) +
                                  " chunk=" + std::to_string(chunk);
        const CompareResult r = check::compare_vectors(got, forward, exact);
        EXPECT_TRUE(r.ok) << label << ": " << check::describe_failure("dsp.biquad.block", r);
        for (std::size_t s = 0; s < filter.section_count(); ++s) {
          EXPECT_EQ(chunked.state()[s].z1, reference.state()[s].z1) << label;
          EXPECT_EQ(chunked.state()[s].z2, reference.state()[s].z2) << label;
        }
      }
      dsp::BiquadCascade backward(filter.sections());
      std::vector<double> zero_phase = forward;
      for (std::size_t i = n; i-- > 0;) zero_phase[i] = backward.process_sample(zero_phase[i]);
      const CompareResult r = check::compare_vectors(filter.filtfilt(c.data), zero_phase, exact);
      EXPECT_TRUE(r.ok) << c.name << " filtfilt sections=" << filter.section_count() << ": "
                        << check::describe_failure("dsp.biquad.block", r);
    }
  }

  // The designed order-4 band-pass runs in band-pass form
  // (KernelSet::bandpass_wavefront4_d). Its edge cases, compared bit for bit
  // (signs of zeros and non-finite values included) through the dispatched
  // cascade and through both levels' kernel sets directly: stretches of
  // exact zeros of either sign at the start and between bursts, and +inf,
  // -inf and NaN in the middle of a chunk, which send the rest of the call
  // through the general step and leave the signal non-finite from there on.
  const dsp::BiquadCascade& bandpass = filters.front();
  ASSERT_TRUE(bandpass.bandpass_form());
  ASSERT_EQ(dsp::biquad_path(bandpass).rfind("bandpass_", 0) == 0,
            dsp::simd::active().bandpass_wavefront4_d != nullptr);
  for (const auto& [name, x] : bandpass_edge_signals()) {
    const std::size_t n = x.size();
    dsp::BiquadCascade reference(bandpass.sections());
    std::vector<double> forward(n);
    for (std::size_t i = 0; i < n; ++i) forward[i] = reference.process_sample(x[i]);
    dsp::BiquadCascade backward(bandpass.sections());
    std::vector<double> zero_phase = forward;
    for (std::size_t i = n; i-- > 0;) zero_phase[i] = backward.process_sample(zero_phase[i]);
    expect_same_bits(bandpass.filtfilt(x), zero_phase, name + " filtfilt");
    for (std::size_t chunk : {1UL, 3UL, 4UL, 5UL, 480UL, n}) {
      const std::string label = name + " chunk=" + std::to_string(chunk);
      dsp::BiquadCascade chunked(bandpass.sections());
      std::vector<double> got = x;
      for (std::size_t pos = 0; pos < n; pos += chunk)
        chunked.process_in_place(std::span<double>(got).subspan(pos, std::min(chunk, n - pos)));
      expect_same_bits(got, forward, label + " dispatched");
      for (dsp::simd::Level level : {dsp::simd::Level::kNative, dsp::simd::Level::kScalar}) {
        const dsp::simd::KernelSet& set = dsp::simd::kernel_set(level);
        if (set.bandpass_wavefront4_d == nullptr) continue;  // two-lane sets
        double coef[20], z1[4] = {}, z2[4] = {};
        for (std::size_t s = 0; s < 4; ++s) {
          const dsp::Biquad& q = bandpass.sections()[s];
          coef[s] = q.b0;
          coef[4 + s] = q.b1;
          coef[8 + s] = q.b2;
          coef[12 + s] = q.a1;
          coef[16 + s] = q.a2;
        }
        std::vector<double> direct = x;
        for (std::size_t pos = 0; pos < n; pos += chunk)
          set.bandpass_wavefront4_d(direct.data() + pos, 1, std::min(chunk, n - pos), coef, z1,
                                    z2, nullptr);
        const std::string at = label + " " + set.name;
        expect_same_bits(direct, forward, at);
        for (std::size_t s = 0; s < 4; ++s) {
          EXPECT_TRUE(same_bits(z1[s], reference.state()[s].z1)) << at << " z1[" << s << "]";
          EXPECT_TRUE(same_bits(z2[s], reference.state()[s].z2)) << at << " z2[" << s << "]";
        }
      }
    }
  }
}

// --------------------------------------------------------- band MFCC

// The MFCC the feature vector actually carries: mel triangles laid on the
// absorption stage's uniform band grid. Driven with real extracted spectra
// (clear and effusion ears) at band grids from just above the filter count
// to well past the default.
TEST(OracleBandMfccTest, MatchesLiteralChainOnExtractedSpectra) {
  sim::SubjectFactory factory(42);
  sim::ProbeConfig probe_config;
  probe_config.chirp_count = 10;
  const sim::EarProbe probe(probe_config);
  for (sim::EffusionState state : {sim::EffusionState::kClear,
                                   sim::EffusionState::kMucoid}) {
    Rng rng(kSeed ^ 13);
    const audio::Waveform recording = probe.record_state(
        factory.make(0), state, sim::reference_earphone(), {}, rng);
    for (std::size_t bins : {32UL, 64UL, 128UL, 200UL}) {
      core::PipelineConfig config;
      config.features.spectrum.band_bins = bins;
      const core::EchoAnalysis analysis = core::EarSonar(config).analyze(recording);
      ASSERT_EQ(analysis.mean_spectrum.size(), bins);
      const core::FeatureExtractor extractor(config.features);
      expect_pair("core.band_mfcc", extractor.band_mfcc(analysis.mean_spectrum),
                  check::band_mfcc_naive(analysis.mean_spectrum,
                                         config.features.mfcc_filters,
                                         config.features.mfcc_coefficients),
                  "state " + std::to_string(static_cast<int>(state)) + " bins " +
                      std::to_string(bins));
    }
  }
}

// band_mfcc sums each mel triangle only over the bins of its closed span, so
// a non-finite bin reaches only the filters whose span holds it (at least
// one: the spans cover the grid), not all of them. Kept: a NaN bin makes
// every coefficient NaN, because the DCT mixes every log energy into every
// coefficient. Changed: a +inf bin used to make every coefficient NaN too
// (0 * inf in every filter); now a filter with a positive weight on it gets a
// +inf log energy, which the DCT spreads as +/-inf, so every coefficient is
// non-finite (+/-inf, or NaN where opposite infinities or a zero-weight end
// bin meet it) but not necessarily NaN.
//
// Grids: the default 16-20 kHz band, and one whose end frequencies do not
// survive the hz -> mel -> hz round trip of the filter edges (174.5 Hz comes
// back a hair higher, 249 Hz a hair lower), so its first and last bins fall
// just outside the outermost triangles.
TEST(OracleBandMfccTest, NonFiniteBinYieldsNonFiniteCoefficients) {
  const core::FeatureExtractor extractor;
  const std::size_t bins = extractor.config().spectrum.band_bins;
  for (const auto& [low, high] : {std::pair{16000.0, 20000.0}, std::pair{174.5, 249.0}}) {
    dsp::Spectrum spectrum;
    for (std::size_t b = 0; b < bins; ++b) {
      spectrum.frequency_hz.push_back(low + (high - low) * static_cast<double>(b) /
                                                static_cast<double>(bins - 1));
      spectrum.psd.push_back(1e-6 * (1.0 + 0.5 * std::sin(0.3 * static_cast<double>(b))));
    }
    for (const std::size_t bad : {0UL, bins / 3, bins - 1}) {
      dsp::Spectrum nan_bin = spectrum;
      nan_bin.psd[bad] = std::numeric_limits<double>::quiet_NaN();
      for (double c : extractor.band_mfcc(nan_bin))
        EXPECT_TRUE(std::isnan(c)) << "NaN at bin " << bad << " of " << low << "-" << high;
      dsp::Spectrum inf_bin = spectrum;
      inf_bin.psd[bad] = std::numeric_limits<double>::infinity();
      for (double c : extractor.band_mfcc(inf_bin))
        EXPECT_FALSE(std::isfinite(c)) << "+inf at bin " << bad << " of " << low << "-" << high;
    }
  }
}

// ------------------------------------------------------------- welch

TEST(OracleWelchTest, MatchesNaiveSegmentAverage) {
  for (const check::SignalCase& c : check::cases_for_size(768, kSeed ^ 12)) {
    for (std::size_t segment : {256UL, 255UL, 768UL}) {  // even, odd, whole
      const dsp::Spectrum got = dsp::welch_psd(c.data, 48000.0, segment);
      expect_pair("dsp.welch", got.psd,
                  check::welch_psd_naive(c.data, 48000.0, segment),
                  c.name + "/seg=" + std::to_string(segment));
    }
  }
}

TEST(OracleWelchTest, PeriodogramIsSingleSegmentWelch) {
  for (const check::SignalCase& c : check::cases_for_size(509, kSeed ^ 13)) {
    const dsp::Spectrum got = dsp::periodogram(c.data, 48000.0);
    expect_pair("dsp.welch", got.psd,
                check::welch_psd_naive(c.data, 48000.0, c.data.size()), c.name);
  }
}

}  // namespace
}  // namespace earsonar
