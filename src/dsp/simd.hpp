// Portable SIMD kernel dispatch for the hot DSP inner loops.
//
// Every vectorizable kernel (FFT butterfly stages, the complex-bin power
// reduction, elementwise window multiplies, and the four-section biquad
// wavefront) exists in two interchangeable builds of the *same* templated
// source (src/dsp/kernel_impl.hpp):
//
//   * a native build using the widest instruction set the translation unit
//     was compiled for — AVX2 (4 doubles, compiled into its own TU with
//     -mavx2 and selected at runtime behind a cpuid check), SSE2 (2) or
//     NEON (2) from the baseline flags;
//   * a scalar "pack" build emulating vectors of the *same* lane count with
//     plain arrays, compiled without intrinsics.
//
// Because both builds instantiate identical code over op sets whose per-lane
// arithmetic is the same IEEE operation sequence (subtraction is expressed as
// add(x, negate(y)) in both, reductions combine lanes in one fixed order),
// results are bit-identical across the two dispatch modes —
// the property the `simd`-labeled parity tests pin. The whole earsonar_dsp
// target is compiled with -ffp-contract=off so a native-arch build cannot
// contract mul+add into FMA in one mode only.
//
// Selection: EARSONAR_SIMD=scalar forces the pack build (parity and
// sanitizer runs); EARSONAR_SIMD=native or unset picks the widest level the
// CPU supports. The choice is made once per process.
#pragma once

#include <cstddef>
#include <cstdint>

namespace earsonar::dsp {
struct EnvelopeFold;
}  // namespace earsonar::dsp

namespace earsonar::dsp::simd {

enum class Level {
  kScalar,  ///< pack emulation at the native lane count (no intrinsics)
  kNative,  ///< widest instruction set this build + CPU supports
};

/// A run of radix-2 butterflies of one stage (half-length h): `blocks`
/// consecutive blocks of 2h complex values, the first starting `k0` before
/// complex position `lo`; in each block the butterflies k0 .. k0+count-1
/// pair position i + k with i + k + h and use the stage's twiddle k.
struct ButterflyRun {
  std::uint32_t h;
  std::uint32_t lo;      ///< complex position of the first run's lo element
  std::uint32_t k0;      ///< index of the first butterfly within its block
  std::uint32_t count;   ///< butterflies per block
  std::uint32_t blocks;  ///< consecutive blocks (stride 2h) sharing k0, count
};

/// One complete set of kernel entry points at a fixed lane geometry.
/// Buffers are unaligned; complex data is interleaved (re, im) pairs.
struct KernelSet {
  const char* name;     ///< "avx2", "sse2", "neon", "pack2", "pack4"
  std::size_t lanes_d;  ///< doubles per vector (complex doubles = lanes_d/2)

  /// Radix-2 DIT butterfly stages over n complex values already in
  /// bit-reversed order. `twiddles` uses the FftPlan stage layout: the stage
  /// with half-length h keeps its h twiddles at complex offset [h, 2h).
  void (*butterflies_d)(double* data, const double* twiddles, std::size_t n);

  /// Selected butterflies of four transforms at once, in a lane-major
  /// layout: complex index k of transform l lives at data[8k + l] (real part)
  /// and data[8k + 4 + l] (imaginary part). Runs execute in order; each
  /// butterfly is the per-element arithmetic of butterflies_d's stage
  /// (same twiddle table and stage layout), so a run list covering every
  /// butterfly equals four single transforms bit for bit. A pruned list
  /// (dsp::BandPsdPlan) computes only the butterflies a band needs.
  void (*butterfly_runs_x4_d)(double* data, const double* twiddles,
                              const ButterflyRun* runs, std::size_t run_count);

  /// out[k] = (bins[2k]^2 + bins[2k+1]^2) * scale for k in [0, m).
  void (*power_bins_d)(const double* bins, double* out, std::size_t m, double scale);

  /// dst[i] = a[i] * b[i] (dst may alias a or b).
  void (*mul_d)(double* dst, const double* a, const double* b, std::size_t n);

  /// A four-section transposed-DF2 cascade over one channel, run as a
  /// section wavefront: lane s holds section s, which at step t filters
  /// sample t - s. Sample i lives at data[i * stride] (stride -1 from the
  /// last element runs the signal back to front), filtered in place.
  /// coef = {b0[4], b1[4], b2[4], a1[4], a2[4]} by section; z1/z2 are the
  /// four sections' delay lines, updated on return. Every section-step is
  /// the expression sequence of BiquadCascade::process_sample, so output
  /// and delay lines are bit-identical to the sample-major cascade. Null
  /// in sets whose lane count is not four.
  using Wavefront4 = void (*)(double* data, std::ptrdiff_t stride, std::size_t n,
                              const double* coef, double* z1, double* z2);
  Wavefront4 biquad_wavefront4_d;

  /// biquad_wavefront4_d for a cascade in band-pass form: every b1 is zero
  /// (of either sign), sections 1-3 have b0 == 1 and b2 == -1, and section
  /// 0 has b0 > 0 and b2 == -b0 (dsp::butterworth_bandpass designs exactly
  /// this). Lane 0 takes b0 * x instead of x, so the steady step is
  ///   x = shift_in(y, b0 * d);  y = x + z1;
  ///   z1 = (b1 * x + z2) - a1 * y;  z2 = -1 * x - a2 * y
  /// and both loop-carried chains are three operations long (the general
  /// step's are four). Output and delay lines equal biquad_wavefront4_d's
  /// bit for bit (see kernel_impl.hpp); a non-finite sample, or a
  /// non-finite delay line, sends the rest of the call through the general
  /// step. With `fold` non-null (forward only: stride 1, fold->count >=
  /// fold->smooth, data[i] the fold's sample fold->count + i with the
  /// fold's previous samples in front of it), each sample the band-pass
  /// step filters is folded into the power envelope in the same loop, and
  /// the fold advances over those leading samples (the caller folds the
  /// rest with EnvelopeFold::fold).
  using Bandpass4 = void (*)(double* data, std::ptrdiff_t stride, std::size_t n,
                             const double* coef, double* z1, double* z2, EnvelopeFold* fold);
  Bandpass4 bandpass_wavefront4_d;
};

/// The dispatch mode chosen from EARSONAR_SIMD (read once per process;
/// unset or "native" -> kNative, "scalar" -> kScalar, anything else throws).
Level active_level();

/// Kernels for an explicit level — parity tests compare the two directly.
const KernelSet& kernel_set(Level level);

/// Kernels for active_level(). Hot paths call this through a static ref.
const KernelSet& active();

/// Name of the native instruction set ("avx2" / "sse2" / "neon" / "pack2"),
/// independent of EARSONAR_SIMD. Reported in bench context and logs.
const char* native_arch();

}  // namespace earsonar::dsp::simd
