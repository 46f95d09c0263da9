#include "dsp/biquad.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "dsp/envelope.hpp"
#include "dsp/simd.hpp"

namespace earsonar::dsp {

std::complex<double> Biquad::response(double w) const {
  const std::complex<double> z1 = std::polar(1.0, -w);
  const std::complex<double> z2 = z1 * z1;
  return (b0 + b1 * z1 + b2 * z2) / (1.0 + a1 * z1 + a2 * z2);
}

bool Biquad::is_stable() const {
  // Jury criterion for a degree-2 polynomial z^2 + a1 z + a2.
  return std::abs(a2) < 1.0 && std::abs(a1) < 1.0 + a2;
}

namespace {

// Runs the cascade in place over data[0, n), consuming samples in index
// order (Reverse: from n-1 down to 0). Coefficients and delay lines are
// hoisted into locals sized by the compile-time section count, so they stay
// in registers across the whole block — through the member vectors the
// compiler must spill and reload them every sample, because it cannot prove
// the output buffer never aliases them. Each section-step evaluates the
// exact expression sequence of BiquadCascade::process_sample, so the
// filtered signal and the final delay lines are bit-identical to the
// generic loop.
template <std::size_t N, bool Reverse>
void run_fixed(const Biquad* sec, BiquadCascade::State* st, double* data,
               std::size_t n) {
  double b0[N], b1[N], b2[N], a1[N], a2[N], z1[N], z2[N];
  for (std::size_t s = 0; s < N; ++s) {
    b0[s] = sec[s].b0;
    b1[s] = sec[s].b1;
    b2[s] = sec[s].b2;
    a1[s] = sec[s].a1;
    a2[s] = sec[s].a2;
    z1[s] = st[s].z1;
    z2[s] = st[s].z2;
  }
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t j = Reverse ? n - 1 - i : i;
    double x = data[j];
    for (std::size_t s = 0; s < N; ++s) {
      const double y = b0[s] * x + z1[s];
      z1[s] = b1[s] * x - a1[s] * y + z2[s];
      z2[s] = b2[s] * x - a2[s] * y;
      x = y;
    }
    data[j] = x;
  }
  for (std::size_t s = 0; s < N; ++s) {
    st[s].z1 = z1[s];
    st[s].z2 = z2[s];
  }
}

// The active kernel set's four-section wavefronts; null unless the set is
// four lanes wide (AVX2, or its Pack twin under EARSONAR_SIMD=scalar).
simd::KernelSet::Wavefront4 wavefront4() {
  static const simd::KernelSet::Wavefront4 fn = simd::active().biquad_wavefront4_d;
  return fn;
}

simd::KernelSet::Bandpass4 bandpass4() {
  static const simd::KernelSet::Bandpass4 fn = simd::active().bandpass_wavefront4_d;
  return fn;
}

// Runs a four-section cascade through a wavefront kernel: one section per
// lane, bit-identical to run_fixed<4> (see simd::KernelSet). The band-pass
// kernel folds the samples it filters into `fold`.
template <bool Reverse>
void run_wavefront(const Biquad* sec, BiquadCascade::State* st, double* data,
                   std::size_t n, bool bandpass, EnvelopeFold* fold) {
  if (n == 0) return;
  double coef[20], z1[4], z2[4];
  for (std::size_t s = 0; s < 4; ++s) {
    coef[s] = sec[s].b0;
    coef[4 + s] = sec[s].b1;
    coef[8 + s] = sec[s].b2;
    coef[12 + s] = sec[s].a1;
    coef[16 + s] = sec[s].a2;
    z1[s] = st[s].z1;
    z2[s] = st[s].z2;
  }
  double* start = Reverse ? data + (n - 1) : data;
  const std::ptrdiff_t stride = Reverse ? -1 : 1;
  if (bandpass) {
    bandpass4()(start, stride, n, coef, z1, z2, fold);
  } else {
    wavefront4()(start, stride, n, coef, z1, z2);
  }
  for (std::size_t s = 0; s < 4; ++s) {
    st[s].z1 = z1[s];
    st[s].z2 = z2[s];
  }
}

// The shape bandpass_wavefront4_d requires (see simd::KernelSet), which
// butterworth_bandpass designs at order 4 (four sections): every b1 a zero,
// b0 == 1 and b2 == -1 past section 0, b0 > 0 and b2 == -b0 in section 0,
// and finite poles.
bool has_bandpass_form(const std::vector<Biquad>& sections) {
  if (sections.size() != 4) return false;
  const double g = sections[0].b0;
  if (!(g > 0.0 && std::isfinite(g)) || sections[0].b2 != -g) return false;
  for (std::size_t s = 0; s < sections.size(); ++s) {
    const Biquad& q = sections[s];
    if (q.b1 != 0.0 || !std::isfinite(q.a1) || !std::isfinite(q.a2)) return false;
    if (s > 0 && (q.b0 != 1.0 || q.b2 != -1.0)) return false;
  }
  return true;
}

}  // namespace

BiquadCascade::BiquadCascade(std::vector<Biquad> sections)
    : sections_(std::move(sections)),
      state_(sections_.size()),
      bandpass_form_(has_bandpass_form(sections_)) {}

double BiquadCascade::process_sample(double x) {
  for (std::size_t i = 0; i < sections_.size(); ++i) {
    const Biquad& s = sections_[i];
    State& st = state_[i];
    const double y = s.b0 * x + st.z1;
    st.z1 = s.b1 * x - s.a1 * y + st.z2;
    st.z2 = s.b2 * x - s.a2 * y;
    x = y;
  }
  return x;
}

std::vector<double> BiquadCascade::process(std::span<const double> input) {
  std::vector<double> out(input.begin(), input.end());
  process_in_place(out);
  return out;
}

// Dispatches to the fixed-count kernel for every cascade size the
// Butterworth designer can produce (order <= 8); four sections take a
// wavefront instead when the CPU has four-lane vectors, in band-pass form
// when the coefficients have it. Larger cascades run the generic per-sample
// loop. Only the band-pass wavefront folds into `fold`: it advances it over
// the leading samples it filtered in band-pass form.
template <bool Reverse>
void BiquadCascade::run(double* data, std::size_t n, EnvelopeFold* fold) {
  const Biquad* sec = sections_.data();
  State* st = state_.data();
  switch (sections_.size()) {
    case 1: run_fixed<1, Reverse>(sec, st, data, n); return;
    case 2: run_fixed<2, Reverse>(sec, st, data, n); return;
    case 3: run_fixed<3, Reverse>(sec, st, data, n); return;
    case 4:
      if (wavefront4() != nullptr) {
        run_wavefront<Reverse>(sec, st, data, n, bandpass_form_, fold);
      } else {
        run_fixed<4, Reverse>(sec, st, data, n);
      }
      return;
    case 5: run_fixed<5, Reverse>(sec, st, data, n); return;
    case 6: run_fixed<6, Reverse>(sec, st, data, n); return;
    case 7: run_fixed<7, Reverse>(sec, st, data, n); return;
    case 8: run_fixed<8, Reverse>(sec, st, data, n); return;
    default:
      for (std::size_t i = 0; i < n; ++i) {
        double& x = data[Reverse ? n - 1 - i : i];
        x = process_sample(x);
      }
      return;
  }
}

void BiquadCascade::process_in_place(std::span<double> data, EnvelopeFold* fold) {
  // Never section-major: one section over the whole block is a single long
  // z1->y->z1 dependency chain with no ILP (~2x slower). The kernels overlap
  // the sections instead — section s of sample i runs while section s+1
  // runs sample i-1. The sample-major run_fixed<N> leaves that overlap to
  // the out-of-order core; the four-section wavefront makes it explicit,
  // one section per vector lane.
  double* p = data.data();
  std::size_t n = data.size();
  if (fold == nullptr) {
    run<false>(p, n, nullptr);
    return;
  }
  // x[i] is sample i of the folded sequence; this block is [count, end).
  const double* x = p - fold->count;
  const std::size_t end = fold->count + n;
  if (fold->count < fold->smooth) {
    // The window is not full yet: filter up to where it is, fold one by one.
    const std::size_t m = std::min(n, fold->smooth - fold->count);
    run<false>(p, m, nullptr);
    fold->fold(x, fold->count + m);
    p += m;
    n -= m;
  }
  run<false>(p, n, fold);
  fold->fold(x, end);
}

std::vector<double> BiquadCascade::filtfilt(std::span<const double> input) const {
  BiquadCascade forward(sections_);
  std::vector<double> y = forward.process(input);
  // Backward pass without materializing either reversal: feeding y back to
  // front and storing each output where its input came from is exactly
  // reverse-process-reverse — the filter sees the identical sample sequence,
  // so the results match that composition bit for bit.
  BiquadCascade backward(sections_);
  backward.run<true>(y.data(), y.size(), nullptr);
  return y;
}

std::string biquad_path(const BiquadCascade& cascade) {
  if (cascade.section_count() != 4 || wavefront4() == nullptr) return "scalar";
  return std::string(cascade.bandpass_form() ? "bandpass_" : "wavefront_") +
         simd::active().name;
}

void BiquadCascade::reset() {
  for (State& st : state_) st = State{};
}

std::complex<double> BiquadCascade::response(double w) const {
  std::complex<double> h{1.0, 0.0};
  for (const Biquad& s : sections_) h *= s.response(w);
  return h;
}

double BiquadCascade::magnitude_at(double frequency_hz, double sample_rate) const {
  require_positive("sample_rate", sample_rate);
  require_in_range("frequency_hz", frequency_hz, 0.0, sample_rate / 2.0);
  const double w = 2.0 * 3.14159265358979323846 * frequency_hz / sample_rate;
  return std::abs(response(w));
}

bool BiquadCascade::is_stable() const {
  return std::all_of(sections_.begin(), sections_.end(),
                     [](const Biquad& s) { return s.is_stable(); });
}

}  // namespace earsonar::dsp
