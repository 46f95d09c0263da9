#include "dsp/butterworth.hpp"

#include <algorithm>
#include <cmath>
#include <complex>
#include <numbers>
#include <vector>

#include "common/error.hpp"

namespace earsonar::dsp {

namespace {

constexpr double kPi = std::numbers::pi;
using Cx = std::complex<double>;

// Left-half-plane poles of the unit-cutoff analog Butterworth prototype.
std::vector<Cx> prototype_poles(int order) {
  require(order >= 1 && order <= 16, "butterworth order must be in [1, 16]");
  std::vector<Cx> poles;
  poles.reserve(static_cast<std::size_t>(order));
  for (int k = 0; k < order; ++k) {
    const double theta = kPi * (2.0 * k + 1.0) / (2.0 * order) + kPi / 2.0;
    poles.emplace_back(std::cos(theta), std::sin(theta));
  }
  return poles;
}

// Bilinear transform s -> z with sampling frequency fs: z = (2fs + s)/(2fs - s).
Cx bilinear(Cx s, double fs) { return (2.0 * fs + s) / (2.0 * fs - s); }

// Frequency pre-warp for the bilinear transform.
double prewarp(double f_hz, double fs) { return 2.0 * fs * std::tan(kPi * f_hz / fs); }

// Pairs digital poles/zeros (which arrive in conjugate-or-real sets) into
// real-coefficient biquads, then normalizes the cascade gain so that
// |H| == 1 at `ref_w` (normalized rad/sample).
BiquadCascade assemble_sections(std::vector<Cx> zeros, std::vector<Cx> poles,
                                double ref_w) {
  ensure(zeros.size() == poles.size(), "assemble_sections: zero/pole count mismatch");

  // Greedy conjugate pairing: repeatedly take one root; if complex, find and
  // consume its conjugate; if real, consume another real root (or stand alone
  // as a first-order section when none remains).
  auto pair_roots = [](std::vector<Cx> roots) {
    std::vector<std::pair<Cx, Cx>> pairs;  // second == NaN means first-order
    constexpr double kTol = 1e-9;
    while (!roots.empty()) {
      Cx r = roots.back();
      roots.pop_back();
      if (std::abs(r.imag()) > kTol) {
        auto it = std::find_if(roots.begin(), roots.end(), [&](Cx c) {
          return std::abs(c - std::conj(r)) < 1e-6 * std::max(1.0, std::abs(r));
        });
        ensure(it != roots.end(), "assemble_sections: unpaired complex root");
        pairs.emplace_back(r, *it);
        roots.erase(it);
      } else {
        auto it = std::find_if(roots.begin(), roots.end(),
                               [&](Cx c) { return std::abs(c.imag()) <= kTol; });
        if (it != roots.end()) {
          pairs.emplace_back(r, *it);
          roots.erase(it);
        } else {
          pairs.emplace_back(r, Cx{std::nan(""), 0.0});
        }
      }
    }
    return pairs;
  };

  const auto zero_pairs = pair_roots(std::move(zeros));
  const auto pole_pairs = pair_roots(std::move(poles));
  ensure(zero_pairs.size() == pole_pairs.size(),
         "assemble_sections: section count mismatch");

  std::vector<Biquad> sections;
  sections.reserve(pole_pairs.size());
  for (std::size_t i = 0; i < pole_pairs.size(); ++i) {
    const auto& [z1, z2] = zero_pairs[i];
    const auto& [p1, p2] = pole_pairs[i];
    Biquad s;
    if (std::isnan(z2.real())) {  // first-order numerator (1 - z1 q)
      s.b0 = 1.0;
      s.b1 = -z1.real();
      s.b2 = 0.0;
    } else {
      s.b0 = 1.0;
      s.b1 = -(z1 + z2).real();
      s.b2 = (z1 * z2).real();
    }
    if (std::isnan(p2.real())) {
      s.a1 = -p1.real();
      s.a2 = 0.0;
    } else {
      s.a1 = -(p1 + p2).real();
      s.a2 = (p1 * p2).real();
    }
    sections.push_back(s);
  }

  BiquadCascade cascade(std::move(sections));
  const double gain = std::abs(cascade.response(ref_w));
  ensure(gain > 0.0, "assemble_sections: zero gain at reference frequency");
  // Fold the normalization into the first section.
  std::vector<Biquad> normalized = cascade.sections();
  normalized.front().b0 /= gain;
  normalized.front().b1 /= gain;
  normalized.front().b2 /= gain;
  return BiquadCascade(std::move(normalized));
}

void check_band(double low_hz, double high_hz, double sample_rate) {
  require_positive("sample_rate", sample_rate);
  require(low_hz > 0.0 && high_hz < sample_rate / 2.0 && low_hz < high_hz,
          "butterworth_bandpass: need 0 < low < high < Nyquist");
}

}  // namespace

BiquadCascade butterworth_lowpass(int order, double cutoff_hz, double sample_rate) {
  require_positive("sample_rate", sample_rate);
  require(cutoff_hz > 0.0 && cutoff_hz < sample_rate / 2.0,
          "butterworth_lowpass: cutoff must be in (0, Nyquist)");
  const double wc = prewarp(cutoff_hz, sample_rate);
  std::vector<Cx> zpoles;
  for (Cx p : prototype_poles(order)) zpoles.push_back(bilinear(p * wc, sample_rate));
  // Low-pass: all transmission zeros at infinity -> z = -1 after bilinear.
  std::vector<Cx> zzeros(zpoles.size(), Cx{-1.0, 0.0});
  return assemble_sections(std::move(zzeros), std::move(zpoles), /*ref_w=*/0.0);
}

BiquadCascade butterworth_bandpass(int order, double low_hz, double high_hz,
                                   double sample_rate) {
  check_band(low_hz, high_hz, sample_rate);
  const double w1 = prewarp(low_hz, sample_rate);
  const double w2 = prewarp(high_hz, sample_rate);
  const double w0 = std::sqrt(w1 * w2);  // analog center
  const double bw = w2 - w1;             // analog bandwidth

  // LP -> BP transform: each prototype pole p spawns the two roots of
  // s^2 - (p * bw) s + w0^2 = 0.
  std::vector<Cx> apoles;
  for (Cx p : prototype_poles(order)) {
    const Cx pb = p * bw;
    const Cx disc = std::sqrt(pb * pb - 4.0 * w0 * w0);
    apoles.push_back((pb + disc) / 2.0);
    apoles.push_back((pb - disc) / 2.0);
  }

  std::vector<Cx> zpoles;
  zpoles.reserve(apoles.size());
  for (Cx p : apoles) zpoles.push_back(bilinear(p, sample_rate));
  // Band-pass: `order` zeros at s=0 (-> z=+1) and `order` at infinity (-> z=-1).
  std::vector<Cx> zzeros;
  for (int i = 0; i < order; ++i) {
    zzeros.emplace_back(1.0, 0.0);
    zzeros.emplace_back(-1.0, 0.0);
  }

  // Reference the gain at the digital center frequency.
  const double fc_digital = std::sqrt(low_hz * high_hz);
  const double ref_w = 2.0 * kPi * fc_digital / sample_rate;
  return assemble_sections(std::move(zzeros), std::move(zpoles), ref_w);
}

}  // namespace earsonar::dsp
