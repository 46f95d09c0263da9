#include "dsp/fft_plan.hpp"

#include <cmath>
#include <mutex>
#include <numbers>
#include <unordered_map>
#include <utility>

#include "common/error.hpp"
#include "common/fault.hpp"
#include "dsp/simd.hpp"

namespace earsonar::dsp {

namespace {
constexpr double kPi = std::numbers::pi;

// Pair ranges the band [bin_lo, bin_hi] needs from the in-place untangle.
// Each pair k covers bins k and h-k, so the pairs form at most two contiguous
// k ranges — the band itself and its mirror, clamped to the pair domain
// [1, h/2]. A full-range request degenerates to the single original [1, h/2]
// loop. Overlapping ranges are merged so no pair executes twice (the untangle
// is in place — re-running a pair would read already-untangled values).
int untangle_pair_ranges(std::size_t h, std::size_t bin_lo, std::size_t bin_hi,
                         std::size_t ra[2], std::size_t rb[2]) {
  const std::size_t kmax = h / 2;
  int nr = 0;
  if (const std::size_t a = bin_lo < 1 ? 1 : bin_lo,
      b = bin_hi < kmax ? bin_hi : kmax;
      a <= b) {
    ra[nr] = a;
    rb[nr] = b;
    ++nr;
  }
  if (const std::size_t a = h - bin_hi < 1 ? 1 : h - bin_hi,
      b = h - bin_lo < kmax ? h - bin_lo : kmax;
      a <= b) {
    ra[nr] = a;
    rb[nr] = b;
    ++nr;
  }
  if (nr == 2) {
    if (ra[0] > ra[1]) {
      std::swap(ra[0], ra[1]);
      std::swap(rb[0], rb[1]);
    }
    if (ra[1] <= rb[0] + 1) {
      rb[0] = rb[0] > rb[1] ? rb[0] : rb[1];
      nr = 1;
    }
  }
  return nr;
}

// Even/odd untangling of the half-length real transform (see forward_real for
// the derivation). o holds the h half-transform bins on entry and the h+1
// real-spectrum bins on exit, w is the interleaved twiddle table
// exp(-2*pi*i*k/n) for k = 0..h.
// The optional [bin_lo, bin_hi] range skips (k, h-k) pairs that produce no
// bin inside it — the executed pairs run the identical arithmetic, so the
// written bins match the full untangle bit for bit (power_spectrum_band
// relies on this; everyone else passes the full range).
void untangle_real(double* o, const double* w, std::size_t h, std::size_t bin_lo = 0,
                   std::size_t bin_hi = static_cast<std::size_t>(-1)) {
  if (bin_hi > h) bin_hi = h;
  if (bin_lo == 0 || bin_hi == h) {
    const double z0r = o[0], z0i = o[1];
    o[0] = z0r + z0i;
    o[1] = 0.0;
    o[2 * h] = z0r - z0i;
    o[2 * h + 1] = 0.0;
  }
  // Iterating the pair ranges directly keeps the loop body branch-free (and
  // vectorizable).
  std::size_t ra[2], rb[2];
  const int nr = untangle_pair_ranges(h, bin_lo, bin_hi, ra, rb);
  for (int r = 0; r < nr; ++r) {
    for (std::size_t k = ra[r]; k <= rb[r]; ++k) {
      const double zkr = o[2 * k], zki = o[2 * k + 1];
      const double zmr = o[2 * (h - k)], zmi = o[2 * (h - k) + 1];
      // sum = (Z[k] + conj(Z[h-k]))/2, diff = -i/2 * W * (Z[k] - conj(Z[h-k]));
      // -i/2 * W folds into the twiddle as {W.imag, -W.real}/2.
      const double dr = zkr - zmr, di = zki + zmi;
      const double tkr = 0.5 * w[2 * k + 1], tki = -0.5 * w[2 * k];
      const double tmr = 0.5 * w[2 * (h - k) + 1], tmi = -0.5 * w[2 * (h - k)];
      // For the mirror bin, Z[m] - conj(Z[h-m]) with m = h-k is (-dr, di).
      o[2 * k] = 0.5 * (zkr + zmr) + tkr * dr - tki * di;
      o[2 * k + 1] = 0.5 * (zki - zmi) + tkr * di + tki * dr;
      o[2 * (h - k)] = 0.5 * (zmr + zkr) - tmr * dr - tmi * di;
      o[2 * (h - k) + 1] = 0.5 * (zmi - zki) + tmr * di - tmi * dr;
    }
  }
}

// ------------------------------------------------- four-lane batched kernels
//
// Layout: complex index k of lane l lives at z[8k + l] (real part) and
// z[8k + 4 + l] (imaginary part). A row of four same-index reals (or imags)
// is one contiguous 4-double group, so every loop below is elementwise over
// lanes and vectorizes without shuffles. The butterfly stages live in the
// kernel dispatch (simd::KernelSet::butterflies_x4_d) so the AVX2 build
// reaches this layout with full-width vectors; each lane runs the identical
// per-element arithmetic sequence as the single-transform kernels, so the
// batched bins equal four single transforms bit for bit at every level.

// untangle_real over the lane-major buffer, same pair ranges and per-pair
// arithmetic; w is the complex twiddle table exp(-2*pi*i*k/n) for k = 0..h.
void untangle_x4(double* z, const Complex* w, std::size_t h, std::size_t bin_lo,
                 std::size_t bin_hi) {
  if (bin_hi > h) bin_hi = h;
  if (bin_lo == 0 || bin_hi == h) {
    double* s0 = z;
    double* sh = z + 8 * h;
    for (std::size_t l = 0; l < 4; ++l) {
      const double z0r = s0[l], z0i = s0[4 + l];
      s0[l] = z0r + z0i;
      s0[4 + l] = 0.0;
      sh[l] = z0r - z0i;
      sh[4 + l] = 0.0;
    }
  }
  std::size_t ra[2], rb[2];
  const int nr = untangle_pair_ranges(h, bin_lo, bin_hi, ra, rb);
  for (int r = 0; r < nr; ++r) {
    for (std::size_t k = ra[r]; k <= rb[r]; ++k) {
      const double tkr = 0.5 * w[k].imag(), tki = -0.5 * w[k].real();
      const double tmr = 0.5 * w[h - k].imag(), tmi = -0.5 * w[h - k].real();
      double* a = z + 8 * k;
      double* b = z + 8 * (h - k);
      for (std::size_t l = 0; l < 4; ++l) {
        const double zkr = a[l], zki = a[4 + l];
        const double zmr = b[l], zmi = b[4 + l];
        const double dr = zkr - zmr, di = zki + zmi;
        a[l] = 0.5 * (zkr + zmr) + tkr * dr - tki * di;
        a[4 + l] = 0.5 * (zki - zmi) + tkr * di + tki * dr;
        b[l] = 0.5 * (zmr + zkr) - tmr * dr - tmi * di;
        b[4 + l] = 0.5 * (zmi - zki) + tmr * di - tmi * dr;
      }
    }
  }
}
}  // namespace

FftPlan::FftPlan(std::size_t n, Kind kind)
    : n_(n), kind_(kind), radix2_(is_power_of_two(n)) {
  require(n >= 1, "FftPlan: size must be >= 1");
  if (kind == Kind::kComplex) {
    if (radix2_) build_radix2_tables();
    else build_bluestein();
  } else {
    build_real();
  }
}

std::shared_ptr<const FftPlan> FftPlan::get(std::size_t n, Kind kind) {
  if (fault::point("fft.plan")) fail("injected fault: fft.plan");
  static std::mutex mutex;
  static std::unordered_map<std::uint64_t, std::shared_ptr<const FftPlan>> cache;
  const std::uint64_t key =
      (static_cast<std::uint64_t>(n) << 1) | (kind == Kind::kReal ? 1u : 0u);
  {
    std::lock_guard<std::mutex> lock(mutex);
    if (auto it = cache.find(key); it != cache.end()) return it->second;
  }
  // Build outside the lock: Bluestein and real plans recursively fetch their
  // helper plans through get(), which must not re-enter a held mutex. A
  // concurrent duplicate build is harmless — first insert wins.
  auto plan = std::make_shared<const FftPlan>(n, kind);
  std::lock_guard<std::mutex> lock(mutex);
  return cache.try_emplace(key, std::move(plan)).first->second;
}

void FftPlan::build_radix2_tables() {
  bitrev_.resize(n_);
  bitrev_[0] = 0;
  for (std::size_t i = 1, j = 0; i < n_; ++i) {
    std::size_t bit = n_ >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    bitrev_[i] = j;
  }
  // Stage with half-length h stores its h twiddles at [h, 2h): the k-th entry
  // of stage h is exp(-2*pi*i*k / (2h)). Total n-1 entries for all stages.
  twiddles_.resize(n_ >= 2 ? n_ : 1);
  for (std::size_t h = 1; h < n_; h <<= 1) {
    const double angle = -kPi / static_cast<double>(h);
    for (std::size_t k = 0; k < h; ++k) {
      const double a = angle * static_cast<double>(k);
      twiddles_[h + k] = Complex{std::cos(a), std::sin(a)};
    }
  }
}

void FftPlan::build_bluestein() {
  const std::size_t m = next_power_of_two(2 * n_ - 1);
  pad_plan_ = get(m, Kind::kComplex);
  chirp_.resize(n_);
  std::vector<Complex> b(m, Complex{0.0, 0.0});
  for (std::size_t k = 0; k < n_; ++k) {
    // k^2 mod 2n keeps the angle argument small for large k.
    const std::size_t k2 = (k * k) % (2 * n_);
    const double angle = -kPi * static_cast<double>(k2) / static_cast<double>(n_);
    chirp_[k] = Complex{std::cos(angle), std::sin(angle)};
  }
  b[0] = Complex{1.0, 0.0};
  for (std::size_t k = 1; k < n_; ++k) {
    b[k] = std::conj(chirp_[k]);
    b[m - k] = b[k];
  }
  pad_plan_->forward_inplace(b);
  kernel_fft_ = std::move(b);
}

void FftPlan::build_real() {
  if (n_ == 1) return;
  if (n_ % 2 == 0) {
    half_plan_ = get(n_ / 2, Kind::kComplex);
    real_twiddles_.resize(n_ / 2 + 1);
    for (std::size_t k = 0; k <= n_ / 2; ++k) {
      const double a = -2.0 * kPi * static_cast<double>(k) / static_cast<double>(n_);
      real_twiddles_[k] = Complex{std::cos(a), std::sin(a)};
    }
  } else {
    full_plan_ = get(n_, Kind::kComplex);
  }
}

// The per-call loops below work on raw double* views of the complex buffers
// (std::complex<double> guarantees array-of-double layout) with every member
// hoisted into a local first. Writing through the std::span<Complex> while
// reading members makes GCC assume the stores may alias this->twiddles_ /
// this->n_, so it reloads them every iteration and assembles each Complex
// through a stack round-trip — measured ~10x slower than this form. The
// butterfly stages themselves now live in the dispatched SIMD kernels
// (src/dsp/kernel_impl.hpp) with the same per-element arithmetic, so results
// are unchanged bit for bit (see simd.hpp for why that holds across levels).

void FftPlan::butterflies(std::span<Complex> data) const {
  simd::active().butterflies_d(reinterpret_cast<double*>(data.data()),
                               reinterpret_cast<const double*>(twiddles_.data()),
                               n_);
}

void FftPlan::permute_copy(std::span<const Complex> in, std::span<Complex> out) const {
  const Complex* src = in.data();
  Complex* dst = out.data();
  const std::size_t* rev = bitrev_.data();
  const std::size_t n = n_;
  for (std::size_t i = 0; i < n; ++i) dst[i] = src[rev[i]];
}

void FftPlan::forward_inplace(std::span<Complex> data) const {
  require(kind_ == Kind::kComplex && radix2_,
          "FftPlan::forward_inplace: needs a power-of-two complex plan");
  require(data.size() == n_, "FftPlan::forward_inplace: size mismatch");
  Complex* d = data.data();
  const std::size_t* rev = bitrev_.data();
  const std::size_t n = n_;
  for (std::size_t i = 1; i < n; ++i) {
    const std::size_t j = rev[i];
    if (i < j) std::swap(d[i], d[j]);
  }
  butterflies(data);
}

void FftPlan::forward(std::span<const Complex> in, std::span<Complex> out,
                      FftScratch& scratch) const {
  if (fault::point("fft.execute")) fail("injected fault: fft.execute");
  require(kind_ == Kind::kComplex, "FftPlan::forward: complex plan required");
  require(in.size() == n_ && out.size() == n_, "FftPlan::forward: size mismatch");
  if (radix2_) {
    permute_copy(in, out);
    butterflies(out);
    return;
  }
  bluestein(in, out, scratch);
}

void FftPlan::inverse(std::span<const Complex> in, std::span<Complex> out,
                      FftScratch& scratch) const {
  require(kind_ == Kind::kComplex, "FftPlan::inverse: complex plan required");
  require(in.size() == n_ && out.size() == n_, "FftPlan::inverse: size mismatch");
  const double scale = 1.0 / static_cast<double>(n_);
  // IFFT(x) = conj(FFT(conj(x))) / n, conjugating in the work buffers rather
  // than materializing a conjugated input copy.
  if (radix2_) {
    const std::size_t n = n_;
    const std::size_t* rev = bitrev_.data();
    {
      const double* src = reinterpret_cast<const double*>(in.data());
      double* dst = reinterpret_cast<double*>(out.data());
      for (std::size_t i = 0; i < n; ++i) {
        const std::size_t j = 2 * rev[i];
        dst[2 * i] = src[j];
        dst[2 * i + 1] = -src[j + 1];
      }
    }
    butterflies(out);
    {
      double* dst = reinterpret_cast<double*>(out.data());
      for (std::size_t i = 0; i < 2 * n; i += 2) {
        dst[i] *= scale;
        dst[i + 1] *= -scale;
      }
    }
    return;
  }
  scratch.b.resize(n_);
  for (std::size_t i = 0; i < n_; ++i) scratch.b[i] = std::conj(in[i]);
  bluestein(std::span<const Complex>(scratch.b.data(), n_), out, scratch);
  for (auto& v : out) v = std::conj(v) * scale;
}

void FftPlan::bluestein(std::span<const Complex> in, std::span<Complex> out,
                        FftScratch& scratch) const {
  const std::size_t m = pad_plan_->size();
  const std::size_t n = n_;
  scratch.a.assign(m, Complex{0.0, 0.0});
  std::span<Complex> a(scratch.a.data(), m);
  double* ad = reinterpret_cast<double*>(scratch.a.data());
  {
    const double* x = reinterpret_cast<const double*>(in.data());
    const double* c = reinterpret_cast<const double*>(chirp_.data());
    for (std::size_t k = 0; k < 2 * n; k += 2) {
      const double xr = x[k], xi = x[k + 1], cr = c[k], ci = c[k + 1];
      ad[k] = xr * cr - xi * ci;
      ad[k + 1] = xr * ci + xi * cr;
    }
  }
  pad_plan_->forward_inplace(a);
  {
    const double* kf = reinterpret_cast<const double*>(kernel_fft_.data());
    // Fold the conjugate trick's input conjugation into the product store.
    for (std::size_t i = 0; i < 2 * m; i += 2) {
      const double xr = ad[i], xi = ad[i + 1], kr = kf[i], ki = kf[i + 1];
      ad[i] = xr * kr - xi * ki;
      ad[i + 1] = -(xr * ki + xi * kr);
    }
  }
  pad_plan_->forward_inplace(a);
  const double scale = 1.0 / static_cast<double>(m);
  {
    const double* c = reinterpret_cast<const double*>(chirp_.data());
    double* o = reinterpret_cast<double*>(out.data());
    for (std::size_t k = 0; k < 2 * n; k += 2) {
      const double xr = ad[k] * scale, xi = -ad[k + 1] * scale;
      const double cr = c[k], ci = c[k + 1];
      o[k] = xr * cr - xi * ci;
      o[k + 1] = xr * ci + xi * cr;
    }
  }
}

void FftPlan::half_transform(std::span<const double> in, std::span<Complex> out,
                             FftScratch& scratch) const {
  const std::size_t h = n_ / 2;
  if (half_plan_->radix2_) {
    // Pack + bit-reverse in one pass, then run butterflies directly in out.
    const std::size_t* rev = half_plan_->bitrev_.data();
    const double* src = in.data();
    double* dst = reinterpret_cast<double*>(out.data());
    for (std::size_t i = 0; i < h; ++i) {
      const std::size_t j = 2 * rev[i];
      dst[2 * i] = src[j];
      dst[2 * i + 1] = src[j + 1];
    }
    half_plan_->butterflies(out.subspan(0, h));
    return;
  }
  scratch.b.resize(h);
  for (std::size_t j = 0; j < h; ++j) scratch.b[j] = Complex{in[2 * j], in[2 * j + 1]};
  // bluestein() only touches scratch.a, so scratch.b stays intact as input.
  half_plan_->bluestein(std::span<const Complex>(scratch.b.data(), h),
                        out.subspan(0, h), scratch);
}

void FftPlan::forward_real(std::span<const double> in, std::span<Complex> out,
                           FftScratch& scratch) const {
  if (fault::point("fft.execute")) fail("injected fault: fft.execute");
  require(kind_ == Kind::kReal, "FftPlan::forward_real: real plan required");
  require(in.size() == n_, "FftPlan::forward_real: input size mismatch");
  require(out.size() == real_bins(), "FftPlan::forward_real: output size mismatch");
  if (n_ == 1) {
    out[0] = Complex{in[0], 0.0};
    return;
  }
  if (full_plan_) {  // odd length: full complex transform, keep n/2+1 bins
    // Odd sizes are off the hot path; the full spectrum lives in scratch.c
    // (bluestein works through scratch.a, input through scratch.b).
    scratch.b.resize(n_);
    for (std::size_t i = 0; i < n_; ++i) scratch.b[i] = Complex{in[i], 0.0};
    scratch.c.resize(n_);
    full_plan_->forward(std::span<const Complex>(scratch.b.data(), n_),
                        std::span<Complex>(scratch.c.data(), n_), scratch);
    for (std::size_t k = 0; k < real_bins(); ++k) out[k] = scratch.c[k];
    return;
  }

  // Even length: transform the packed half-length sequence z[j] = x[2j] +
  // i*x[2j+1], then untangle the even/odd spectra:
  //   X[k] = (Z[k] + conj(Z[h-k]))/2 - (i/2) * W[k] * (Z[k] - conj(Z[h-k])),
  // with W[k] = exp(-2*pi*i*k/n) and Z[h] = Z[0]. Bins are untangled in
  // (k, h-k) pairs so Z can live in the output buffer.
  const std::size_t h = n_ / 2;
  half_transform(in, out, scratch);
  untangle_real(reinterpret_cast<double*>(out.data()),
                reinterpret_cast<const double*>(real_twiddles_.data()), h);
}

void FftPlan::inverse_real(std::span<const Complex> spectrum, std::span<double> out,
                           FftScratch& scratch) const {
  require(kind_ == Kind::kReal, "FftPlan::inverse_real: real plan required");
  require(spectrum.size() == real_bins(),
          "FftPlan::inverse_real: spectrum size mismatch");
  require(out.size() == n_, "FftPlan::inverse_real: output size mismatch");
  if (n_ == 1) {
    out[0] = spectrum[0].real();
    return;
  }
  if (full_plan_) {  // odd length: rebuild the Hermitian spectrum, invert
    scratch.b.resize(n_);
    for (std::size_t k = 0; k < real_bins(); ++k) scratch.b[k] = spectrum[k];
    for (std::size_t k = real_bins(); k < n_; ++k)
      scratch.b[k] = std::conj(spectrum[n_ - k]);
    std::vector<Complex> time(n_);
    full_plan_->inverse(std::span<const Complex>(scratch.b.data(), n_), time, scratch);
    for (std::size_t i = 0; i < n_; ++i) out[i] = time[i].real();
    return;
  }

  // Even length: re-pack the half-length spectrum
  //   Z[k] = ((X[k] + conj(X[h-k])) + i * conj(W[k]) * (X[k] - conj(X[h-k]))) / 2
  // and run the half-length inverse; z[j] = x[2j] + i*x[2j+1].
  const std::size_t h = n_ / 2;
  scratch.b.resize(h);
  {
    const double* x = reinterpret_cast<const double*>(spectrum.data());
    const double* w = reinterpret_cast<const double*>(real_twiddles_.data());
    double* b = reinterpret_cast<double*>(scratch.b.data());
    for (std::size_t k = 0; k < h; ++k) {
      const double xkr = x[2 * k], xki = x[2 * k + 1];
      const double xmr = x[2 * (h - k)], xmi = -x[2 * (h - k) + 1];
      // i * conj(W[k]) folds into the twiddle as {W.imag, W.real}.
      const double wr = w[2 * k], wi = w[2 * k + 1];
      const double dr = xkr - xmr, di = xki - xmi;
      b[2 * k] = 0.5 * (xkr + xmr + wi * dr - wr * di);
      b[2 * k + 1] = 0.5 * (xki + xmi + wi * di + wr * dr);
    }
  }
  std::vector<Complex>& z = scratch.a;
  // half_plan_->inverse for the radix-2 case works out-of-place from
  // scratch.b into a second buffer; Bluestein additionally needs scratch.a
  // free, so give it a local buffer then.
  if (half_plan_->radix2_) {
    z.resize(h);
    half_plan_->inverse(std::span<const Complex>(scratch.b.data(), h),
                        std::span<Complex>(z.data(), h), scratch);
    for (std::size_t j = 0; j < h; ++j) {
      out[2 * j] = z[j].real();
      out[2 * j + 1] = z[j].imag();
    }
  } else {
    std::vector<Complex> zz(h);
    half_plan_->inverse(std::span<const Complex>(scratch.b.data(), h), zz, scratch);
    for (std::size_t j = 0; j < h; ++j) {
      out[2 * j] = zz[j].real();
      out[2 * j + 1] = zz[j].imag();
    }
  }
}

void FftPlan::power_spectrum(std::span<const double> in, std::span<double> out,
                             double scale, FftScratch& scratch) const {
  require(out.size() == real_bins(), "FftPlan::power_spectrum: output size mismatch");
  if (n_ % 2 == 0 || n_ == 1) {  // bins can live in scratch.c (unused here)
    scratch.c.resize(real_bins());
    std::span<Complex> bins(scratch.c.data(), real_bins());
    forward_real(in, bins, scratch);
    simd::active().power_bins_d(reinterpret_cast<const double*>(bins.data()),
                                out.data(), bins.size(), scale);
    return;
  }
  // Odd sizes route forward_real through scratch.c already; use a local.
  std::vector<Complex> local(real_bins());
  forward_real(in, local, scratch);
  for (std::size_t k = 0; k < local.size(); ++k) out[k] = std::norm(local[k]) * scale;
}

void FftPlan::power_spectrum_band(std::span<const double> in, std::span<double> out,
                                  double scale, FftScratch& scratch,
                                  std::size_t bin_lo, std::size_t bin_hi) const {
  require(kind_ == Kind::kReal, "FftPlan::power_spectrum_band: real plan required");
  require(out.size() == real_bins(),
          "FftPlan::power_spectrum_band: output size mismatch");
  require(bin_lo <= bin_hi && bin_hi < real_bins(),
          "FftPlan::power_spectrum_band: bin range out of order");
  if (n_ == 1 || n_ % 2 != 0 || !half_plan_->radix2_) {
    power_spectrum(in, out, scale, scratch);
    return;
  }
  require(in.size() == n_, "FftPlan::power_spectrum_band: input size mismatch");
  if (fault::point("fft.execute")) fail("injected fault: fft.execute");

  // Full half-length transform (every untangle pair reads both Z[k] and
  // Z[h-k], so no stage can be pruned), then only the pairs and |X|^2
  // reductions the requested bins need.
  const std::size_t h = n_ / 2;
  scratch.c.resize(real_bins());
  std::span<Complex> bins(scratch.c.data(), real_bins());
  half_transform(in, bins, scratch);
  untangle_real(reinterpret_cast<double*>(bins.data()),
                reinterpret_cast<const double*>(real_twiddles_.data()), h, bin_lo,
                bin_hi);
  simd::active().power_bins_d(
      reinterpret_cast<const double*>(bins.data()) + 2 * bin_lo,
      out.data() + bin_lo, bin_hi - bin_lo + 1, scale);
}

void FftPlan::power_spectrum_band_x4(const double* const in[4],
                                     double* const out[4], double scale,
                                     FftScratch& scratch, std::size_t bin_lo,
                                     std::size_t bin_hi) const {
  require(kind_ == Kind::kReal, "FftPlan::power_spectrum_band_x4: real plan required");
  require(bin_lo <= bin_hi && bin_hi < real_bins(),
          "FftPlan::power_spectrum_band_x4: bin range out of order");
  if (n_ == 1 || n_ % 2 != 0 || !half_plan_->radix2_) {
    for (std::size_t l = 0; l < 4; ++l)
      power_spectrum_band(std::span<const double>(in[l], n_),
                          std::span<double>(out[l], real_bins()), scale, scratch,
                          bin_lo, bin_hi);
    return;
  }
  if (fault::point("fft.execute")) fail("injected fault: fft.execute");

  const std::size_t h = n_ / 2;
  scratch.d.resize(8 * (h + 1));
  double* z = scratch.d.data();

  // Pack + bit-reverse all four inputs into the lane-major buffer in one pass.
  const std::size_t* rev = half_plan_->bitrev_.data();
  for (std::size_t i = 0; i < h; ++i) {
    const std::size_t j = 2 * rev[i];
    double* s = z + 8 * i;
    for (std::size_t l = 0; l < 4; ++l) {
      s[l] = in[l][j];
      s[4 + l] = in[l][j + 1];
    }
  }
  simd::active().butterflies_x4_d(
      z, reinterpret_cast<const double*>(half_plan_->twiddles_.data()), h);
  untangle_x4(z, real_twiddles_.data(), h, bin_lo, bin_hi);
  for (std::size_t k = bin_lo; k <= bin_hi; ++k) {
    const double* s = z + 8 * k;
    for (std::size_t l = 0; l < 4; ++l)
      out[l][k] = (s[l] * s[l] + s[4 + l] * s[4 + l]) * scale;
  }
}

void FftPlan::magnitude_spectrum(std::span<const double> in, std::span<double> out,
                                 FftScratch& scratch) const {
  require(out.size() == real_bins(),
          "FftPlan::magnitude_spectrum: output size mismatch");
  if (n_ % 2 == 0 || n_ == 1) {
    scratch.c.resize(real_bins());
    std::span<Complex> bins(scratch.c.data(), real_bins());
    forward_real(in, bins, scratch);
    for (std::size_t k = 0; k < bins.size(); ++k) out[k] = std::abs(bins[k]);
    return;
  }
  std::vector<Complex> local(real_bins());
  forward_real(in, local, scratch);
  for (std::size_t k = 0; k < local.size(); ++k) out[k] = std::abs(local[k]);
}

}  // namespace earsonar::dsp
