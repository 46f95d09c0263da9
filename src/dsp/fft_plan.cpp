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

// Even/odd untangling of the half-length real transform (see forward_real for
// the derivation). o holds the h half-transform bins on entry and the h+1
// real-spectrum bins on exit, w is the interleaved twiddle table
// exp(-2*pi*i*k/n) for k = 0..h. dsp::BandPsdPlan runs the same per-pair
// arithmetic on the pairs its band needs.
void untangle_real(double* o, const double* w, std::size_t h) {
  const double z0r = o[0], z0i = o[1];
  o[0] = z0r + z0i;
  o[1] = 0.0;
  o[2 * h] = z0r - z0i;
  o[2 * h + 1] = 0.0;
  for (std::size_t k = 1; k <= h / 2; ++k) {
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
