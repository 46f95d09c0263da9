#include "dsp/biquad.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
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

BiquadCascade::BiquadCascade(std::vector<Biquad> sections)
    : sections_(std::move(sections)), state_(sections_.size()) {}

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

// The active kernel set's four-section wavefront; null unless the set is
// four lanes wide (AVX2, or its Pack twin under EARSONAR_SIMD=scalar).
simd::KernelSet::Wavefront4 wavefront4() {
  static const simd::KernelSet::Wavefront4 fn = simd::active().biquad_wavefront4_d;
  return fn;
}

// Runs a four-section cascade through the wavefront kernel: one section per
// lane, bit-identical to run_fixed<4> (see simd::KernelSet).
template <bool Reverse>
void run_wavefront(simd::KernelSet::Wavefront4 kernel, const Biquad* sec,
                   BiquadCascade::State* st, double* data, std::size_t n) {
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
  kernel(Reverse ? data + (n - 1) : data, Reverse ? -1 : 1, n, coef, z1, z2);
  for (std::size_t s = 0; s < 4; ++s) {
    st[s].z1 = z1[s];
    st[s].z2 = z2[s];
  }
}

// Dispatches to the fixed-count kernel for every cascade size the
// Butterworth designer can produce (order <= 8); four sections take the
// wavefront instead when the CPU has four-lane vectors. Returns false for
// larger cascades, which fall back to the generic per-sample loop.
template <bool Reverse>
bool run_cascade(const std::vector<Biquad>& sections,
                 std::vector<BiquadCascade::State>& state, double* data,
                 std::size_t n) {
  const Biquad* sec = sections.data();
  BiquadCascade::State* st = state.data();
  switch (sections.size()) {
    case 1: run_fixed<1, Reverse>(sec, st, data, n); return true;
    case 2: run_fixed<2, Reverse>(sec, st, data, n); return true;
    case 3: run_fixed<3, Reverse>(sec, st, data, n); return true;
    case 4:
      if (const auto kernel = wavefront4()) {
        run_wavefront<Reverse>(kernel, sec, st, data, n);
      } else {
        run_fixed<4, Reverse>(sec, st, data, n);
      }
      return true;
    case 5: run_fixed<5, Reverse>(sec, st, data, n); return true;
    case 6: run_fixed<6, Reverse>(sec, st, data, n); return true;
    case 7: run_fixed<7, Reverse>(sec, st, data, n); return true;
    case 8: run_fixed<8, Reverse>(sec, st, data, n); return true;
    default: return false;
  }
}

}  // namespace

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

void BiquadCascade::process_in_place(std::span<double> data) {
  // Never section-major: one section over the whole block is a single long
  // z1->y->z1 dependency chain with no ILP (~2x slower). The kernels overlap
  // the sections instead — section s of sample i runs while section s+1
  // runs sample i-1. The sample-major run_fixed<N> leaves that overlap to
  // the out-of-order core; the four-section wavefront makes it explicit,
  // one section per vector lane.
  if (!run_cascade<false>(sections_, state_, data.data(), data.size()))
    for (double& x : data) x = process_sample(x);
}

std::vector<double> BiquadCascade::filtfilt(std::span<const double> input) const {
  BiquadCascade forward(sections_);
  std::vector<double> y = forward.process(input);
  // Backward pass without materializing either reversal: feeding y back to
  // front and storing each output where its input came from is exactly
  // reverse-process-reverse — the filter sees the identical sample sequence,
  // so the results match that composition bit for bit.
  BiquadCascade backward(sections_);
  if (!run_cascade<true>(backward.sections_, backward.state_, y.data(), y.size()))
    for (std::size_t i = y.size(); i-- > 0;) y[i] = backward.process_sample(y[i]);
  return y;
}

std::string biquad_path(std::size_t section_count) {
  if (section_count == 4 && wavefront4() != nullptr)
    return std::string("wavefront_") + simd::active().name;
  return "scalar";
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
