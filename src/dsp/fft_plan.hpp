// Planned FFT engine.
//
// An FftPlan precomputes everything about a transform that depends only on
// its size — the bit-reversal permutation, per-stage twiddle tables, the
// Bluestein chirp kernel (and its forward FFT) for non-power-of-two sizes,
// and the pack/unpack twiddles of the real-input half-length algorithm — so
// the per-call work is reduced to butterflies over caller-provided buffers.
// Together with the scratch-buffer execute() overloads this makes
// steady-state transforms allocation-free. The absorption stage's per-echo
// band PSDs run a pruned four-lane form of the real transform
// (dsp::BandPsdPlan, src/dsp/band_psd.hpp) over these tables.
//
// Plans are immutable after construction and safe to share across threads;
// FftPlan::get() returns them from a process-wide, mutex-guarded cache keyed
// by (size, kind). Scratch buffers are NOT thread-safe — give each thread its
// own FftScratch (the convenience wrappers in fft.cpp keep one per thread).
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "dsp/fft.hpp"

namespace earsonar::dsp {

/// Reusable work buffers for the execute() overloads. Buffers grow on first
/// use with a given plan size and are reused (never shrunk) afterwards.
struct FftScratch {
  std::vector<Complex> a;
  std::vector<Complex> b;
  std::vector<Complex> c;
};

class FftPlan {
 public:
  /// kComplex plans transform n complex points (any n >= 1; radix-2 for
  /// powers of two, cached Bluestein otherwise). kReal plans transform n real
  /// points into the n/2+1 non-negative-frequency bins via the half-length
  /// complex transform (even n; odd n falls back to a full complex plan).
  enum class Kind { kComplex, kReal };

  FftPlan(std::size_t n, Kind kind);

  /// Process-wide plan cache (thread-safe). Returns a shared immutable plan.
  static std::shared_ptr<const FftPlan> get(std::size_t n, Kind kind);

  [[nodiscard]] std::size_t size() const { return n_; }
  [[nodiscard]] Kind kind() const { return kind_; }
  /// Number of complex bins a real forward transform produces (n/2 + 1).
  [[nodiscard]] std::size_t real_bins() const { return n_ / 2 + 1; }

  // --- complex transforms (Kind::kComplex) ---------------------------------

  /// In-place forward DFT; only valid for power-of-two plans.
  void forward_inplace(std::span<Complex> data) const;

  /// Forward DFT, out-of-place (in and out must not alias; |in| = |out| = n).
  void forward(std::span<const Complex> in, std::span<Complex> out,
               FftScratch& scratch) const;

  /// Inverse DFT with the 1/n normalization (conjugates in the output buffer;
  /// no input copy is made).
  void inverse(std::span<const Complex> in, std::span<Complex> out,
               FftScratch& scratch) const;

  // --- real transforms (Kind::kReal) ---------------------------------------

  /// Forward DFT of n real samples; out receives the n/2+1 bins X[0..n/2].
  void forward_real(std::span<const double> in, std::span<Complex> out,
                    FftScratch& scratch) const;

  /// Inverse of forward_real: n/2+1 bins (Hermitian symmetry implied) back to
  /// n real samples, including the 1/n normalization.
  void inverse_real(std::span<const Complex> spectrum, std::span<double> out,
                    FftScratch& scratch) const;

  /// out[k] = |X[k]|^2 * scale for the n/2+1 non-negative-frequency bins.
  void power_spectrum(std::span<const double> in, std::span<double> out,
                      double scale, FftScratch& scratch) const;

  /// out[k] = |X[k]| for the n/2+1 non-negative-frequency bins.
  void magnitude_spectrum(std::span<const double> in, std::span<double> out,
                          FftScratch& scratch) const;

 private:
  friend class BandPsdPlan;  // reuses the stage and untangle twiddle tables

  void build_radix2_tables();
  void build_bluestein();
  void build_real();

  /// Butterfly stages over data already in bit-reversed order.
  void butterflies(std::span<Complex> data) const;
  /// out[i] = in[bitrev_[i]] — fuses the input copy with the permutation.
  void permute_copy(std::span<const Complex> in, std::span<Complex> out) const;
  void bluestein(std::span<const Complex> in, std::span<Complex> out,
                 FftScratch& scratch) const;
  /// Half-length complex transform of the packed even/odd samples, written
  /// into out[0..n/2-1]; valid for even-n real plans.
  void half_transform(std::span<const double> in, std::span<Complex> out,
                      FftScratch& scratch) const;

  std::size_t n_;
  Kind kind_;
  bool radix2_;

  // Radix-2 tables (power-of-two complex plans).
  std::vector<std::size_t> bitrev_;  ///< bit-reversed index of each position
  std::vector<Complex> twiddles_;    ///< stage with half-length h at [h, 2h)

  // Bluestein state (non-power-of-two complex plans).
  std::shared_ptr<const FftPlan> pad_plan_;  ///< radix-2 plan of size m
  std::vector<Complex> chirp_;       ///< w[k] = exp(-i*pi*k^2/n)
  std::vector<Complex> kernel_fft_;  ///< forward FFT of the padded chirp kernel

  // Real-plan state.
  std::shared_ptr<const FftPlan> half_plan_;  ///< complex plan of size n/2 (even n)
  std::shared_ptr<const FftPlan> full_plan_;  ///< complex plan of size n (odd n)
  std::vector<Complex> real_twiddles_;        ///< exp(-2*pi*i*k/n), k = 0..n/2
};

}  // namespace earsonar::dsp
