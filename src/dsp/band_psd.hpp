// Pruned four-lane band PSD: |X[k]|^2 of zero-padded real windows, for one
// contiguous bin band only.
//
// The absorption stage (core::EchoSpectrumExtractor) zero-pads each 73-sample
// echo window to 512 points and reads 45 bins of the 16-20 kHz band. A full
// half-length real transform does 1,024 butterflies per window; most of them
// either see only zero inputs or feed no band bin. A BandPsdPlan, built once
// per (fft size, window length, band), keeps only the rest (classic FFT
// pruning, Markel, IEEE Trans. Audio Electroacoust. 1971):
//
//   * broadcast blocks — while a radix-2 block holds a single live input, each
//     stage adds an exact zero to it, so its output is that input repeated.
//     The plan writes those repeats directly (no bit-reversed pack);
//   * butterfly runs — a stage computes only the butterflies with two live
//     inputs whose outputs reach a requested bin (through the untangle pairs
//     of the real transform). At 512 points, 73 samples and 16-20 kHz at
//     48 kHz, 539 of 1,024 butterflies remain.
//
// Every computed butterfly, untangle pair and |X|^2 reduction runs the
// FftPlan::power_spectrum expressions, four windows side by side in the
// lane-major layout of simd::KernelSet::butterfly_runs_x4_d. A skipped
// butterfly either feeds no requested bin or adds w * 0 to a value, which
// returns the value bit for bit; only the sign of an exact-zero result can
// differ, and |X|^2 erases it. Each requested bin therefore equals
// FftPlan::power_spectrum of the zero-padded window bit for bit (the
// `dsp.psd.band` oracle pair).
//
// Plans are immutable after construction and safe to share across threads;
// the work buffer passed to execute_x4 is per thread.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "dsp/fft_plan.hpp"
#include "dsp/simd.hpp"

namespace earsonar::dsp {

class BandPsdPlan {
 public:
  /// A plan for windows of `window_len` real samples, zero-padded to the
  /// power-of-two `n`, producing bins [bin_lo, bin_hi] of the n/2 + 1
  /// non-negative-frequency bins. Needs 1 <= window_len <= n.
  BandPsdPlan(std::size_t n, std::size_t window_len, std::size_t bin_lo,
              std::size_t bin_hi);

  /// Band PSD of four windows: windows[l] points at window_len samples, or is
  /// null for an all-zero lane. out receives bins() * 4 values lane-major:
  /// out[4 * (k - bin_lo) + l] = |X_l[k]|^2 * scale. `work` is resized as
  /// needed and holds no state between calls. Fault point `fft.execute`.
  void execute_x4(const double* const windows[4], double* out, double scale,
                  std::vector<double>& work) const;

  /// Bins per lane execute_x4 writes: bin_hi - bin_lo + 1.
  [[nodiscard]] std::size_t bins() const { return bin_hi_ - bin_lo_ + 1; }
  /// Butterflies the runs compute per call, of (n/4) * log2(n/2) in the
  /// full half-length transform.
  [[nodiscard]] std::size_t butterflies() const { return butterflies_; }
  /// The butterfly runs, in execution order (exposed for the SIMD parity
  /// tests).
  [[nodiscard]] const std::vector<simd::ButterflyRun>& runs() const { return runs_; }

 private:
  /// Complex input `src` = (x[2 src], x[2 src + 1]) repeated into complex
  /// positions [dst, dst + count) of the half-length transform.
  struct Broadcast {
    std::uint32_t src, dst, count;
  };

  std::size_t n_, window_len_, bin_lo_, bin_hi_;
  std::size_t butterflies_ = 0;
  std::shared_ptr<const FftPlan> real_plan_;  ///< stage and untangle twiddles
  std::vector<Broadcast> broadcasts_;
  std::vector<simd::ButterflyRun> runs_;
  /// Untangle pair ranges [pair_a[r], pair_b[r]] the band reads.
  std::size_t pair_a_[2] = {}, pair_b_[2] = {};
  int pairs_ = 0;
  bool untangle_dc_ = false;  ///< bin 0 or bin n/2 requested
};

}  // namespace earsonar::dsp
