// Differential oracle for the non-FFT DSP kernels: convolution and
// correlation (FFT path vs direct sums), Goertzel vs the literal DTFT,
// DCT-II vs the literal formula, the transposed biquad cascade vs a
// per-sample direct-form-I reference, the feature stage's band MFCC vs its
// textbook chain, and Welch PSD vs a naive segment-average. Includes the
// regression test for the Goertzel factor-of-N normalization this harness
// surfaced.
#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <string>
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
