// Vector types plugged into the templated kernels (src/dsp/kernel_impl.hpp).
//
// Each type models the same static interface:
//
//   using value_type = double;             scalar element
//   static constexpr std::size_t kLanes;   element count
//   load / store (unaligned), zero, broadcast, add, sub, mul, negate,
//   dup_even   — a[0],a[0],a[2],a[2],...   (complex: broadcast real parts)
//   dup_odd    — a[1],a[1],a[3],a[3],...   (complex: broadcast imag parts)
//   swap_pairs — a[1],a[0],a[3],a[2],...   (complex: swap re/im)
//   neg_even   — -a[0],a[1],-a[2],a[3],... (complex: negate real lanes)
//   hadd_pairs(a, b) — concatenated pairwise sums: lanes [0, W/2) hold
//                      a[2k]+a[2k+1], lanes [W/2, W) hold b[2k]+b[2k+1]
//                      (complex: |z|^2 reduction of 2W scalars to W, in order)
//
// The four-lane types (Pack<T, 4>, VecAvx2D) also provide the two lane moves
// of the biquad section wavefront (Kern::biquad_wavefront4):
//
//   shift_in(a, x) — x,a[0],a[1],...,a[W-2]  (one-lane shift up, x enters lane 0)
//   last_lane(a)   — a[W-1]
//
// `Pack<T, W>` is the intrinsic-free twin: a plain array looped per lane.
// Bit-parity across dispatch modes rests on every intrinsic here mapping to
// exactly the per-lane IEEE operation the Pack version performs — permutes
// and sign-flips are exact, and add/sub/mul are correctly-rounded per lane on
// every target — so any Pack<T, W> instantiation matches any W-lane intrinsic
// type bit for bit. sub() is required to equal add(x, negate(y)) exactly;
// IEEE-754 guarantees that identity for every operand including zeros and
// NaN payload propagation on all supported targets.
#pragma once

#include <cstddef>

#if defined(__SSE2__) || defined(_M_X64)
#include <immintrin.h>
#define EARSONAR_SIMD_X86 1
#elif defined(__ARM_NEON) || defined(__aarch64__)
#include <arm_neon.h>
#define EARSONAR_SIMD_NEON 1
#endif

namespace earsonar::dsp::simd {

// ---------------------------------------------------------------------------
// Pack<T, W>: scalar emulation at an arbitrary lane count.
// ---------------------------------------------------------------------------
template <class T, std::size_t W>
struct Pack {
  using value_type = T;
  static constexpr std::size_t kLanes = W;
  T v[W];

  static Pack load(const T* p) {
    Pack r;
    for (std::size_t i = 0; i < W; ++i) r.v[i] = p[i];
    return r;
  }
  static void store(T* p, Pack a) {
    for (std::size_t i = 0; i < W; ++i) p[i] = a.v[i];
  }
  static Pack zero() {
    Pack r;
    for (std::size_t i = 0; i < W; ++i) r.v[i] = T(0);
    return r;
  }
  static Pack broadcast(T x) {
    Pack r;
    for (std::size_t i = 0; i < W; ++i) r.v[i] = x;
    return r;
  }
  static Pack add(Pack a, Pack b) {
    Pack r;
    for (std::size_t i = 0; i < W; ++i) r.v[i] = a.v[i] + b.v[i];
    return r;
  }
  static Pack sub(Pack a, Pack b) {
    // Expressed as add-of-negation so the operation sequence matches the
    // intrinsic builds that synthesize ops this way (see neg_even users).
    return add(a, negate(b));
  }
  static Pack mul(Pack a, Pack b) {
    Pack r;
    for (std::size_t i = 0; i < W; ++i) r.v[i] = a.v[i] * b.v[i];
    return r;
  }
  static Pack negate(Pack a) {
    Pack r;
    for (std::size_t i = 0; i < W; ++i) r.v[i] = -a.v[i];
    return r;
  }
  static Pack dup_even(Pack a) {
    Pack r;
    for (std::size_t i = 0; i < W; i += 2) r.v[i] = r.v[i + 1] = a.v[i];
    return r;
  }
  static Pack dup_odd(Pack a) {
    Pack r;
    for (std::size_t i = 0; i < W; i += 2) r.v[i] = r.v[i + 1] = a.v[i + 1];
    return r;
  }
  static Pack swap_pairs(Pack a) {
    Pack r;
    for (std::size_t i = 0; i < W; i += 2) {
      r.v[i] = a.v[i + 1];
      r.v[i + 1] = a.v[i];
    }
    return r;
  }
  static Pack neg_even(Pack a) {
    Pack r;
    for (std::size_t i = 0; i < W; i += 2) {
      r.v[i] = -a.v[i];
      r.v[i + 1] = a.v[i + 1];
    }
    return r;
  }
  static Pack hadd_pairs(Pack a, Pack b) {
    Pack r;
    for (std::size_t i = 0; i < W / 2; ++i) {
      r.v[i] = a.v[2 * i] + a.v[2 * i + 1];
      r.v[W / 2 + i] = b.v[2 * i] + b.v[2 * i + 1];
    }
    return r;
  }
  static Pack shift_in(Pack a, T x) {
    Pack r;
    r.v[0] = x;
    for (std::size_t i = 1; i < W; ++i) r.v[i] = a.v[i - 1];
    return r;
  }
  static T last_lane(Pack a) { return a.v[W - 1]; }
};

#if defined(EARSONAR_SIMD_X86)

// ---------------------------------------------------------------------------
// SSE2 (baseline on x86-64): 2 doubles.
// ---------------------------------------------------------------------------
struct VecSse2D {
  using value_type = double;
  static constexpr std::size_t kLanes = 2;
  __m128d v;

  static VecSse2D wrap(__m128d x) { return VecSse2D{x}; }
  static VecSse2D load(const double* p) { return wrap(_mm_loadu_pd(p)); }
  static void store(double* p, VecSse2D a) { _mm_storeu_pd(p, a.v); }
  static VecSse2D zero() { return wrap(_mm_setzero_pd()); }
  static VecSse2D broadcast(double x) { return wrap(_mm_set1_pd(x)); }
  static VecSse2D add(VecSse2D a, VecSse2D b) { return wrap(_mm_add_pd(a.v, b.v)); }
  static VecSse2D sub(VecSse2D a, VecSse2D b) { return wrap(_mm_sub_pd(a.v, b.v)); }
  static VecSse2D mul(VecSse2D a, VecSse2D b) { return wrap(_mm_mul_pd(a.v, b.v)); }
  static VecSse2D negate(VecSse2D a) {
    return wrap(_mm_xor_pd(a.v, _mm_set1_pd(-0.0)));
  }
  static VecSse2D dup_even(VecSse2D a) {
    return wrap(_mm_shuffle_pd(a.v, a.v, 0b00));
  }
  static VecSse2D dup_odd(VecSse2D a) {
    return wrap(_mm_shuffle_pd(a.v, a.v, 0b11));
  }
  static VecSse2D swap_pairs(VecSse2D a) {
    return wrap(_mm_shuffle_pd(a.v, a.v, 0b01));
  }
  static VecSse2D neg_even(VecSse2D a) {
    return wrap(_mm_xor_pd(a.v, _mm_set_pd(0.0, -0.0)));
  }
  static VecSse2D hadd_pairs(VecSse2D a, VecSse2D b) {
    return wrap(_mm_add_pd(_mm_unpacklo_pd(a.v, b.v), _mm_unpackhi_pd(a.v, b.v)));
  }
};

#if defined(__AVX2__)

// ---------------------------------------------------------------------------
// AVX2: 4 doubles. Only compiled into the -mavx2 TU.
// ---------------------------------------------------------------------------
struct VecAvx2D {
  using value_type = double;
  static constexpr std::size_t kLanes = 4;
  __m256d v;

  static VecAvx2D wrap(__m256d x) { return VecAvx2D{x}; }
  static VecAvx2D load(const double* p) { return wrap(_mm256_loadu_pd(p)); }
  static void store(double* p, VecAvx2D a) { _mm256_storeu_pd(p, a.v); }
  static VecAvx2D zero() { return wrap(_mm256_setzero_pd()); }
  static VecAvx2D broadcast(double x) { return wrap(_mm256_set1_pd(x)); }
  static VecAvx2D add(VecAvx2D a, VecAvx2D b) { return wrap(_mm256_add_pd(a.v, b.v)); }
  static VecAvx2D sub(VecAvx2D a, VecAvx2D b) { return wrap(_mm256_sub_pd(a.v, b.v)); }
  static VecAvx2D mul(VecAvx2D a, VecAvx2D b) { return wrap(_mm256_mul_pd(a.v, b.v)); }
  static VecAvx2D negate(VecAvx2D a) {
    return wrap(_mm256_xor_pd(a.v, _mm256_set1_pd(-0.0)));
  }
  static VecAvx2D dup_even(VecAvx2D a) { return wrap(_mm256_movedup_pd(a.v)); }
  static VecAvx2D dup_odd(VecAvx2D a) {
    return wrap(_mm256_permute_pd(a.v, 0b1111));
  }
  static VecAvx2D swap_pairs(VecAvx2D a) {
    return wrap(_mm256_permute_pd(a.v, 0b0101));
  }
  static VecAvx2D neg_even(VecAvx2D a) {
    return wrap(_mm256_xor_pd(a.v, _mm256_set_pd(0.0, -0.0, 0.0, -0.0)));
  }
  static VecAvx2D hadd_pairs(VecAvx2D a, VecAvx2D b) {
    // _mm256_hadd_pd works within 128-bit halves: (a01, b01, a23, b23);
    // permute lanes 0,2,1,3 into the required order (a01, a23, b01, b23).
    return wrap(_mm256_permute4x64_pd(_mm256_hadd_pd(a.v, b.v), 0xD8));
  }
  static VecAvx2D shift_in(VecAvx2D a, double x) {
    // (a0, a0, a1, a2), then x blended into lane 0.
    return wrap(_mm256_blend_pd(_mm256_permute4x64_pd(a.v, 0x90),
                                _mm256_set1_pd(x), 0b0001));
  }
  static double last_lane(VecAvx2D a) {
    // Lane 3 into lane 0 with one permute: the wavefronts store it every step.
    return _mm256_cvtsd_f64(_mm256_permute4x64_pd(a.v, 0xFF));
  }
};

#endif  // __AVX2__

#elif defined(EARSONAR_SIMD_NEON)

// ---------------------------------------------------------------------------
// NEON (aarch64): 2 doubles.
// ---------------------------------------------------------------------------
struct VecNeonD {
  using value_type = double;
  static constexpr std::size_t kLanes = 2;
  float64x2_t v;

  static VecNeonD wrap(float64x2_t x) { return VecNeonD{x}; }
  static VecNeonD load(const double* p) { return wrap(vld1q_f64(p)); }
  static void store(double* p, VecNeonD a) { vst1q_f64(p, a.v); }
  static VecNeonD zero() { return wrap(vdupq_n_f64(0.0)); }
  static VecNeonD broadcast(double x) { return wrap(vdupq_n_f64(x)); }
  static VecNeonD add(VecNeonD a, VecNeonD b) { return wrap(vaddq_f64(a.v, b.v)); }
  static VecNeonD sub(VecNeonD a, VecNeonD b) { return wrap(vsubq_f64(a.v, b.v)); }
  static VecNeonD mul(VecNeonD a, VecNeonD b) { return wrap(vmulq_f64(a.v, b.v)); }
  static VecNeonD negate(VecNeonD a) { return wrap(vnegq_f64(a.v)); }
  static VecNeonD dup_even(VecNeonD a) { return wrap(vdupq_laneq_f64(a.v, 0)); }
  static VecNeonD dup_odd(VecNeonD a) { return wrap(vdupq_laneq_f64(a.v, 1)); }
  static VecNeonD swap_pairs(VecNeonD a) { return wrap(vextq_f64(a.v, a.v, 1)); }
  static VecNeonD neg_even(VecNeonD a) {
    const uint64x2_t mask = {0x8000000000000000ULL, 0};
    return wrap(vreinterpretq_f64_u64(
        veorq_u64(vreinterpretq_u64_f64(a.v), mask)));
  }
  static VecNeonD hadd_pairs(VecNeonD a, VecNeonD b) {
    return wrap(vpaddq_f64(a.v, b.v));
  }
};

#endif  // arch

}  // namespace earsonar::dsp::simd
