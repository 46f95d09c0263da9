#include "check/tolerance.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <sstream>

#include "common/error.hpp"

namespace earsonar::check {

namespace {

// Registration helper — scripts/check_docs.sh greps these call sites to gate
// the pair catalog against docs/testing.md, so every entry must go through
// add_pair with a literal name.
void add_pair(std::vector<PairPolicy>& table, const char* name, const char* optimized,
              const char* reference, Tolerance tol, const char* note) {
  table.push_back({name, optimized, reference, tol, note});
}

std::vector<PairPolicy> build_table() {
  std::vector<PairPolicy> t;
  add_pair(t, "dsp.fft.forward", "dsp::fft (planned radix-2 / Bluestein)",
           "check::dft_naive (textbook O(n^2) DFT)", {1e-9, 1e-12},
           "Bluestein round-off grows ~O(log n) of the output norm; 1e-9 holds to n = 8192");
  add_pair(t, "dsp.fft.inverse", "dsp::ifft", "check::idft_naive", {1e-9, 1e-12},
           "same error budget as the forward transform plus the 1/N scaling");
  add_pair(t, "dsp.fft.real", "dsp::rfft (half-length real algorithm)",
           "check::dft_naive over the real signal", {1e-9, 1e-12},
           "the split/merge step adds at most a few ULP over the complex path");
  add_pair(t, "dsp.fft.power_spectrum", "dsp::power_spectrum", "check::power_spectrum_naive",
           {2e-9, 1e-15}, "squaring doubles the forward transform's relative error");
  add_pair(t, "dsp.convolve.fft", "dsp::convolve_fft / dsp::convolve",
           "check::convolve_naive (direct O(NM) sum)", {1e-9, 1e-12},
           "three transforms of the zero-padded length; error tracks the padded norm");
  add_pair(t, "dsp.correlate.fft", "dsp::cross_correlate (FFT path)",
           "check::cross_correlate_naive", {1e-9, 1e-12},
           "identical transform budget to dsp.convolve.fft");
  add_pair(t, "dsp.goertzel", "dsp::goertzel_magnitude",
           "check::dtft_magnitude_naive (literal DTFT sum)", {1e-7, 1e-9},
           "the two-term recurrence loses ~O(N) ULP near cos(w) = +-1; 1e-7 holds to n = 8192");
  add_pair(t, "dsp.dct2", "dsp::dct2 / dsp::idct2", "check::dct2_naive (literal formula)",
           {1e-10, 1e-13}, "same O(n^2) math; only summation order differs");
  add_pair(t, "dsp.biquad.block", "dsp::BiquadCascade::process (direct-form II transposed)",
           "check::biquad_cascade_df1_naive (per-sample direct-form I)", {1e-6, 1e-9},
           "DF1 and DF2T round differently; the 8-pole band-pass has poles near |z| = 1 "
           "so per-sample differences are amplified by the filter's Q");
  add_pair(t, "dsp.simd.dispatch", "dsp::simd::kernel_set(kNative) kernels",
           "dsp::simd::kernel_set(kScalar) (Pack emulation, same lane count)", {0.0, 0.0},
           "bit-exact: both levels instantiate the identical templated op sequence "
           "(src/dsp/kernel_impl.hpp) at the same lane width with -ffp-contract=off");
  add_pair(t, "dsp.psd.band",
           "dsp::BandPsdPlan::execute_x4 (pruned four-lane band transform) and the "
           "core::EchoSpectrumExtractor rows built on it",
           "dsp::FftPlan::power_spectrum of the zero-padded window over every bin "
           "(check::echo_psd_row_unpruned for whole rows)",
           {0.0, 0.0},
           "bit-exact: each computed butterfly runs the full transform's expressions; a "
           "skipped one feeds no requested bin or adds w * 0, which keeps its operand's "
           "bits, and |X|^2 erases the sign of an exact zero");
  add_pair(t, "core.band_mfcc", "core::FeatureExtractor::band_mfcc",
           "check::band_mfcc_naive (literal mel/log/DCT chain on the band grid)",
           {1e-10, 1e-12},
           "triangles, summation order and log floor match term for term, so the log "
           "energies agree to a few ULP; the rest is the dsp.dct2 budget");
  add_pair(t, "core.event_detect",
           "core::AdaptiveEventDetector::detect (median only when a peak needs it)",
           "check::event_detect_naive (full-sort median of the envelope, up front)",
           {0.0, 0.0},
           "bit-exact: the octave bracket only decides gates the exact median would "
           "decide the same way, by monotone rounding; equal events, start and end");
  add_pair(t, "core.segment", "core::ParityEchoSegmenter::segment (lag-window search)",
           "check::segment_naive (all-lag direct auto-convolution, then the window)",
           {0.0, 0.0},
           "bit-exact: the lag window is a superset of the distance window, and every "
           "EchoSegment field comes from x and integer positions, not from the sums");
  add_pair(t, "ml.laplacian", "ml::laplacian_scores (sparse kNN graph, edge sums)",
           "check::laplacian_scores_naive (dense n x n weights, full-row sorts)",
           {0.0, 0.0},
           "bit-exact: same distance bits, the same (distance, index) neighbour order, "
           "and every skipped off-graph term is +0.0 into a non-negative sum");
  add_pair(t, "dsp.welch", "dsp::welch_psd / dsp::periodogram", "check::welch_psd_naive",
           {2e-9, 1e-18}, "per-segment transform error, averaged; scaling is identical");
  add_pair(t, "common.percentile", "earsonar::percentile (two order statistics)",
           "check::percentile_naive (full std::sort)", {0.0, 0.0},
           "bit-exact: both paths interpolate the same two order statistics");
  add_pair(t, "serve.stream.filter", "dsp::BiquadCascade::process chunk-at-a-time",
           "one whole-signal process() call", {0.0, 0.0},
           "bit-exact: a causal IIR recurrence is invariant to chunk boundaries");
  add_pair(t, "serve.stream.finish", "serve::StreamingSession::finish",
           "core::EarSonar::analyze on the whole recording", {0.0, 0.0},
           "bit-exact by design (see src/serve/streaming.hpp); any drift is a bug");
  add_pair(t, "serve.stream.envelope",
           "the dsp::EnvelopeFold a chunked BiquadCascade::process_in_place folds as it "
           "filters (the band-pass wavefront's fused loop), and "
           "core::AdaptiveEventDetector::detect on it",
           "dsp::EnvelopeFold::fold over the whole filtered signal; "
           "check::event_detect_naive for the events",
           {0.0, 0.0},
           "bit-exact: the fused loop runs the reference loop's full-window step on the "
           "same samples in the same order; the window's warm-up, each call's last three "
           "samples, other cascades and recordings shorter than the window go "
           "through the reference loop itself");
  add_pair(t, "audio.wav.roundtrip_f32", "write_wav/read_wav float32",
           "the in-memory samples, clamped to [-1, 1]", {1.2e-7, 1e-37},
           "IEEE float quantization: half-ULP at 2^-24 relative");
  add_pair(t, "audio.wav.roundtrip_pcm16", "write_wav/read_wav int16",
           "the in-memory samples, clamped to [-1, 1]", {0.0, 1.6e-5},
           "one rounding step of the symmetric 1/32767 quantizer; +-1.0 is exact");
  add_pair(t, "golden.filtered_chirp", "core::Preprocessor::process head samples",
           "tests/oracle/fixtures/filtered_chirp.json", {1e-9, 1e-15},
           "drift gate: libm / re-association slack across toolchains");
  add_pair(t, "golden.echo_psd", "core::EarSonar::analyze mean echo-window PSD",
           "tests/oracle/fixtures/echo_psd.json", {1e-8, 1e-18},
           "drift gate: PSD ratios divide two transforms, doubling the slack");
  add_pair(t, "golden.features", "core::EarSonar::analyze 105-feature vector",
           "tests/oracle/fixtures/feature_vector.json", {1e-7, 1e-12},
           "drift gate: log-band and shape features sit behind divisions and logs");
  add_pair(t, "golden.laplacian_top25", "ml::laplacian_scores + select_best_features",
           "tests/oracle/fixtures/laplacian_top25.json", {0.0, 0.0},
           "bit-exact: a changed index means the selection itself changed");
  return t;
}

}  // namespace

const std::vector<PairPolicy>& pair_policies() {
  static const std::vector<PairPolicy> table = build_table();
  return table;
}

const PairPolicy& pair_policy(std::string_view name) {
  for (const PairPolicy& p : pair_policies())
    if (p.name == name) return p;
  throw std::invalid_argument("pair_policy: unknown oracle pair '" + std::string(name) + "'");
}

std::uint64_t ulp_distance(double a, double b) {
  if (a == b) return 0;
  if (!std::isfinite(a) || !std::isfinite(b)) return UINT64_MAX;
  // Map the sign-magnitude bit pattern onto a monotone integer line.
  const auto order = [](double x) {
    const auto bits = std::bit_cast<std::int64_t>(x);
    return bits < 0 ? std::numeric_limits<std::int64_t>::min() - bits : bits;
  };
  const std::int64_t ia = order(a);
  const std::int64_t ib = order(b);
  return ia > ib ? static_cast<std::uint64_t>(ia) - static_cast<std::uint64_t>(ib)
                 : static_cast<std::uint64_t>(ib) - static_cast<std::uint64_t>(ia);
}

CompareResult compare_vectors(std::span<const double> got, std::span<const double> want,
                              const Tolerance& tol) {
  require(got.size() == want.size(), "compare_vectors: size mismatch");
  double linf = 0.0;
  for (double w : want) linf = std::max(linf, std::abs(w));

  CompareResult worst;
  double worst_margin = -1.0;  // error minus allowance; > 0 means failure
  for (std::size_t i = 0; i < got.size(); ++i) {
    const bool finite = std::isfinite(got[i]) && std::isfinite(want[i]);
    const double error = finite ? std::abs(got[i] - want[i])
                                : std::numeric_limits<double>::infinity();
    const double allowed = tol.abs + tol.rel * std::max(std::abs(want[i]), linf);
    const double margin = error - allowed;
    if (margin > worst_margin) {
      worst_margin = margin;
      worst = {error <= allowed, i, got[i], want[i], error, allowed};
    }
  }
  return worst;
}

std::string describe_failure(std::string_view pair, const CompareResult& result) {
  std::ostringstream os;
  os.precision(17);
  os << "oracle pair '" << pair << "' diverged at index " << result.index << ": got "
     << result.got << ", reference " << result.want << " (|diff| = " << result.error
     << ", allowed " << result.allowed << ")";
  return os.str();
}

}  // namespace earsonar::check
