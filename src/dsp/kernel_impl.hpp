// Templated kernel bodies shared by every dispatch level.
//
// Each translation unit (kernels_base.cpp, kernels_avx2.cpp,
// kernels_pack.cpp) instantiates Kern<V> over its own vector types from
// simd_vec.hpp and exports the resulting function pointers through a
// KernelSet. Because the code here is the single source for both the
// intrinsic and the Pack builds, per-lane operation sequences are identical
// by construction — the foundation of the scalar-vs-native bit-parity
// guarantee (see simd.hpp). Keep every arithmetic decision (e.g. expressing
// v as add(t1, neg_even(t2)), the lane-ordered reductions, the scalar tails)
// in this file only.
#pragma once

#include <cmath>
#include <cstddef>
#include <limits>

#include "dsp/envelope.hpp"
#include "dsp/simd.hpp"
#include "dsp/simd_vec.hpp"

namespace earsonar::dsp::simd {

template <class V>
struct Kern {
  using T = typename V::value_type;
  static constexpr std::size_t W = V::kLanes;

  /// Radix-2 DIT butterfly stages over n complex values (2n scalars) already
  /// in bit-reversed order. Stage twiddle layout matches FftPlan: the stage
  /// with half-length h keeps its h complex twiddles at scalar offset 2h.
  static void butterflies(T* d, const T* twiddles, std::size_t n) {
    const std::size_t n2 = 2 * n;
    // The first two stages need no multiplies: their twiddles are exactly 1
    // and {1, -i}. They stay scalar — identical code in every instantiation.
    if (n >= 2) {
      for (std::size_t i = 0; i < n2; i += 4) {
        const T ur = d[i], ui = d[i + 1], vr = d[i + 2], vi = d[i + 3];
        d[i] = ur + vr;
        d[i + 1] = ui + vi;
        d[i + 2] = ur - vr;
        d[i + 3] = ui - vi;
      }
    }
    if (n >= 4) {
      for (std::size_t i = 0; i < n2; i += 8) {
        const T u0r = d[i], u0i = d[i + 1], v0r = d[i + 4], v0i = d[i + 5];
        d[i] = u0r + v0r;
        d[i + 1] = u0i + v0i;
        d[i + 4] = u0r - v0r;
        d[i + 5] = u0i - v0i;
        const T u1r = d[i + 2], u1i = d[i + 3];
        const T v1r = d[i + 7], v1i = -d[i + 6];  // x * -i
        d[i + 2] = u1r + v1r;
        d[i + 3] = u1i + v1i;
        d[i + 6] = u1r - v1r;
        d[i + 7] = u1i - v1i;
      }
    }
    // Generic stages: half-length h >= 4 means each half spans 2h >= 8
    // scalars, a multiple of every supported lane count, so the inner loop
    // needs no tail. Complex multiply in interleaved form:
    //   v = x*w = (xr*wr - xi*wi, xi*wr + xr*wi)
    //     = x*dup_even(w) + neg_even(swap_pairs(x)*dup_odd(w)).
    for (std::size_t h = 4; h < n; h <<= 1) {
      const T* w = twiddles + 2 * h;
      const std::size_t h2 = 2 * h;
      for (std::size_t i = 0; i < n2; i += 2 * h2) {
        T* lo = d + i;
        T* hi = d + i + h2;
        for (std::size_t k = 0; k < h2; k += W) {
          const V wv = V::load(w + k);
          const V x = V::load(hi + k);
          const V u = V::load(lo + k);
          const V t1 = V::mul(x, V::dup_even(wv));
          const V t2 = V::mul(V::swap_pairs(x), V::dup_odd(wv));
          const V v = V::add(t1, V::neg_even(t2));
          V::store(lo + k, V::add(u, v));
          V::store(hi + k, V::add(u, V::negate(v)));
        }
      }
    }
  }

  /// Butterfly runs over four transforms batched in a lane-major layout:
  /// complex index k of transform l lives at z[8k + l] (re) and z[8k + 4 + l]
  /// (im). Rows of four same-index reals (or imags) are contiguous, so every
  /// butterfly is elementwise over 4/W vectors with broadcast twiddles — no
  /// shuffles, every lane busy. Each butterfly mirrors butterflies stage for
  /// stage (the u + negate(v) there is V::sub here, which simd_vec.hpp
  /// requires to be the identical IEEE operation): h = 1 and h = 2 keep
  /// their multiply-free forms, whose twiddles are exactly 1 and {1, -i}, so
  /// every computed output equals the single-transform path bit for bit.
  static void butterfly_runs_x4(T* z, const T* twiddles, const ButterflyRun* runs,
                                std::size_t run_count) {
    constexpr std::size_t R = 4;      // batched transforms per row
    constexpr std::size_t S = 2 * R;  // scalars per complex index
    static_assert(W <= R && R % W == 0, "lane width must tile the batch rows");
    // u +- v over whole rows: the twiddle-1 butterfly.
    const auto add_sub = [](T* u, T* v) {
      for (std::size_t l = 0; l < S; l += W) {
        const V a = V::load(u + l), b = V::load(v + l);
        V::store(u + l, V::add(a, b));
        V::store(v + l, V::sub(a, b));
      }
    };
    // Twiddle -i: re' = im, im' = -re.
    const auto minus_i = [](T* u, T* x) {
      for (std::size_t l = 0; l < R; l += W) {
        const V ur = V::load(u + l);
        const V ui = V::load(u + R + l);
        const V vr = V::load(x + R + l);
        const V vi = V::negate(V::load(x + l));
        V::store(u + l, V::add(ur, vr));
        V::store(u + R + l, V::add(ui, vi));
        V::store(x + l, V::sub(ur, vr));
        V::store(x + R + l, V::sub(ui, vi));
      }
    };
    for (const ButterflyRun* run = runs; run != runs + run_count; ++run) {
      const std::size_t h = run->h;
      for (std::size_t b = 0; b < run->blocks; ++b) {
        T* lo = z + S * (run->lo + 2 * h * b);
        T* hi = lo + S * h;
        if (h <= 2) {  // twiddles exactly 1 (k = 0) and -i (h = 2, k = 1)
          for (std::size_t k = 0; k < run->count; ++k) {
            if (run->k0 + k == 0) add_sub(lo + S * k, hi + S * k);
            else minus_i(lo + S * k, hi + S * k);
          }
          continue;
        }
        const T* w = twiddles + 2 * (h + run->k0);
        for (std::size_t k = 0; k < run->count; ++k) {
          const V wr = V::broadcast(w[2 * k]);
          const V wi = V::broadcast(w[2 * k + 1]);
          T* u = lo + S * k;
          T* x = hi + S * k;
          for (std::size_t l = 0; l < R; l += W) {
            const V xr = V::load(x + l);
            const V xi = V::load(x + R + l);
            const V vr = V::sub(V::mul(xr, wr), V::mul(xi, wi));
            const V vi = V::add(V::mul(xi, wr), V::mul(xr, wi));
            const V ur = V::load(u + l);
            const V ui = V::load(u + R + l);
            V::store(u + l, V::add(ur, vr));
            V::store(u + R + l, V::add(ui, vi));
            V::store(x + l, V::sub(ur, vr));
            V::store(x + R + l, V::sub(ui, vi));
          }
        }
      }
    }
  }

  /// out[k] = (bins[2k]^2 + bins[2k+1]^2) * scale for k in [0, m).
  static void power_bins(const T* bins, T* out, std::size_t m, T scale) {
    const V vscale = V::broadcast(scale);
    std::size_t k = 0;
    for (; k + W <= m; k += W) {
      const V a = V::load(bins + 2 * k);
      const V b = V::load(bins + 2 * k + W);
      const V p = V::hadd_pairs(V::mul(a, a), V::mul(b, b));
      V::store(out + k, V::mul(p, vscale));
    }
    for (; k < m; ++k)
      out[k] = (bins[2 * k] * bins[2 * k] + bins[2 * k + 1] * bins[2 * k + 1]) * scale;
  }

  /// dst[i] = a[i] * b[i]; dst may alias either input.
  static void mul(T* dst, const T* a, const T* b, std::size_t n) {
    std::size_t i = 0;
    for (; i + W <= n; i += W)
      V::store(dst + i, V::mul(V::load(a + i), V::load(b + i)));
    for (; i < n; ++i) dst[i] = a[i] * b[i];
  }

  /// A four-section cascade over one channel as a section wavefront (see
  /// KernelSet::biquad_wavefront4_d).
  static void biquad_wavefront4(T* data, std::ptrdiff_t stride, std::size_t n,
                                const T* coef, T* z1p, T* z2p) {
    wavefront4<false, false>(data, stride, n, coef, z1p, z2p, nullptr);
  }

  /// The same cascade in band-pass form, optionally folding the power
  /// envelope as it filters (see KernelSet::bandpass_wavefront4_d).
  static void bandpass_wavefront4(T* data, std::ptrdiff_t stride, std::size_t n,
                                  const T* coef, T* z1p, T* z2p, EnvelopeFold* fold) {
    if (fold != nullptr) {
      wavefront4<true, true>(data, stride, n, coef, z1p, z2p, fold);
    } else {
      wavefront4<true, false>(data, stride, n, coef, z1p, z2p, nullptr);
    }
  }

  /// At step t lane s runs section s on sample t - s; its input is lane
  /// s-1's output of step t-1, so one shift_in moves every section's output
  /// to the next section and brings sample t into lane 0. The first and last
  /// three steps leave some lanes without a sample; they run those steps lane
  /// by lane in scalar code with the same expressions, so each section
  /// consumes exactly the samples of this call and its delay line is complete
  /// on return.
  ///
  /// BandPass runs the steady steps in band-pass form while the samples and
  /// the delay lines are finite. Per lane it equals the general step bit for
  /// bit:
  ///   * y: lanes 1-3 have b0 == 1 and 1 * x == x; lane 0's x is b0 * d,
  ///     the general step's own first product;
  ///   * z1: b1 * x is a zero (x finite; in lane 0 b0 > 0 keeps the sign
  ///     b1 * d has). A zero added to a nonzero value returns that value,
  ///     and a sum of zeros is -0 only when every addend is, so
  ///     (b1*x + z2) - a1*y equals (b1*x - a1*y) + z2 for finite operands,
  ///     exact zeros and their signs included;
  ///   * z2: -1 * x is b2 * x in lanes 1-3, and in lane 0 (-b0) * d equals
  ///     -(b0 * d) because rounding is sign-symmetric.
  /// A step whose operands are finite therefore matches even when one of
  /// its results overflows. A NaN or infinity in a sample or a delay line
  /// could take a different NaN's bits through the other association, so
  /// such a sample sends the rest of the call through the general step, and
  /// a call that starts with a non-finite delay line runs the general step
  /// throughout. (A finite signal that overflows inside the cascade, near
  /// DBL_MAX, is non-finite from the same sample on in both forms; only the
  /// bits of its NaNs may differ.)
  ///
  /// Fold folds each output of a band-pass step into the power envelope
  /// with EnvelopeFold::fold's full-window step, its state in registers,
  /// and advances the fold over those leading samples.
  template <bool BandPass, bool Fold>
  static void wavefront4(T* data, std::ptrdiff_t stride, std::size_t n, const T* coef,
                         T* z1p, T* z2p, EnvelopeFold* fold) {
    constexpr std::size_t S = 4;
    static_assert(W == S, "one section per lane");
    const auto at = [&](std::size_t i) -> T& {
      return data[static_cast<std::ptrdiff_t>(i) * stride];
    };
    T z1s[S], z2s[S], carry[S] = {};
    for (std::size_t s = 0; s < S; ++s) {
      z1s[s] = z1p[s];
      z2s[s] = z2p[s];
    }
    // Section s on one sample: BiquadCascade::process_sample's expressions.
    const auto section = [&](std::size_t s, T x) {
      const T y = coef[s] * x + z1s[s];
      z1s[s] = coef[S + s] * x - coef[3 * S + s] * y + z2s[s];
      z2s[s] = coef[2 * S + s] * x - coef[4 * S + s] * y;
      return y;
    };
    // One step for the lanes that hold a sample; lanes run from the last so
    // each reads its predecessor's output of the previous step.
    const auto partial_step = [&](std::size_t t) {
      for (std::size_t s = S; s-- > 0;)
        if (t >= s && t - s < n) carry[s] = section(s, s == 0 ? at(t) : carry[s - 1]);
      if (t >= S - 1 && t - (S - 1) < n) at(t - (S - 1)) = carry[S - 1];
    };

    const std::size_t steps = n + S - 1;
    std::size_t t = 0;
    for (; t < S - 1 && t < steps; ++t) partial_step(t);
    if (n >= S) {  // steps [S-1, n): every lane holds a sample
      V z1 = V::load(z1s), z2 = V::load(z2s), y = V::load(carry);
      if constexpr (BandPass) {
        bool finite = true;
        for (std::size_t s = 0; s < S; ++s)
          finite = finite && std::isfinite(z1s[s]) && std::isfinite(z2s[s]) &&
                   std::isfinite(carry[s]);
        if (finite) {
          const T g = coef[0];
          const V b1 = V::load(coef + S), a1 = V::load(coef + 3 * S);
          const V a2 = V::load(coef + 4 * S), minus_one = V::broadcast(T(-1));
          // Fold: output j (step j + S - 1) is sample fold->count + j, whose
          // center lands at row[j] and whose leaving sample is leaving[j].
          T run = 0, sum = 0, window = 1;
          T* row = nullptr;
          const T* leaving = nullptr;
          if constexpr (Fold) {
            run = fold->run;
            sum = fold->sum;
            window = static_cast<T>(fold->smooth);
            row = fold->row + (fold->count - fold->smooth / 2);
            leaving = data - fold->smooth;
          }
          const std::size_t first = t;
          for (; t < n; ++t) {
            const T x0 = g * at(t);
            if (!(std::abs(x0) <= std::numeric_limits<T>::max())) break;
            const V x = V::shift_in(y, x0);
            y = V::add(x, z1);
            z1 = V::sub(V::add(V::mul(b1, x), z2), V::mul(a1, y));
            z2 = V::sub(V::mul(minus_one, x), V::mul(a2, y));
            const T out = V::last_lane(y);
            at(t - (S - 1)) = out;
            if constexpr (Fold) {
              const std::size_t j = t - first;
              const T e = envelope_full_step(out, leaving[j], window, run, sum);
              row[j] = e;
              fold->histogram.add(e);
            }
          }
          if constexpr (Fold) {
            fold->run = run;
            fold->sum = sum;
            fold->count += t - first;
          }
        }
      }
      if (t < n) {
        const V b0 = V::load(coef), b1 = V::load(coef + S), b2 = V::load(coef + 2 * S);
        const V a1 = V::load(coef + 3 * S), a2 = V::load(coef + 4 * S);
        for (; t < n; ++t) {
          const V x = V::shift_in(y, at(t));
          y = V::add(V::mul(b0, x), z1);
          z1 = V::add(V::sub(V::mul(b1, x), V::mul(a1, y)), z2);
          z2 = V::sub(V::mul(b2, x), V::mul(a2, y));
          at(t - (S - 1)) = V::last_lane(y);
        }
      }
      V::store(z1s, z1);
      V::store(z2s, z2);
      V::store(carry, y);
    }
    for (; t < steps; ++t) partial_step(t);
    for (std::size_t s = 0; s < S; ++s) {
      z1p[s] = z1s[s];
      z2p[s] = z2s[s];
    }
  }
};

/// Assembles a KernelSet from one double-lane vector type.
template <class V>
inline KernelSet make_kernel_set(const char* name) {
  KernelSet set{};
  set.name = name;
  set.lanes_d = V::kLanes;
  set.butterflies_d = &Kern<V>::butterflies;
  set.butterfly_runs_x4_d = &Kern<V>::butterfly_runs_x4;
  set.power_bins_d = &Kern<V>::power_bins;
  set.mul_d = &Kern<V>::mul;
  if constexpr (V::kLanes == 4) {
    set.biquad_wavefront4_d = &Kern<V>::biquad_wavefront4;
    set.bandpass_wavefront4_d = &Kern<V>::bandpass_wavefront4;
  }
  return set;
}

// Internal cross-TU hooks (defined in kernels_*.cpp, consumed by simd.cpp).
const KernelSet& pack_set_w2();   ///< Pack<double, 2>
const KernelSet& pack_set_w4();   ///< Pack<double, 4>
const KernelSet& base_set();      ///< SSE2 / NEON / pack2 per build arch
const KernelSet* avx2_set();      ///< non-null only in an AVX2-capable build

}  // namespace earsonar::dsp::simd
