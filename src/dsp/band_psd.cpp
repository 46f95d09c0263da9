#include "dsp/band_psd.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/fault.hpp"

namespace earsonar::dsp {

namespace {

// What a complex position of the half-length transform holds between two
// stages: a copy of one input (its index, >= 0), nothing but padding zeros,
// or a butterfly output.
constexpr std::int64_t kZero = -1;
constexpr std::int64_t kComputed = -2;

// Per-stage butterfly kinds, indexed by the butterfly's lo position.
enum ButterflyKind : std::uint8_t { kNone, kCopy, kCompute };

}  // namespace

BandPsdPlan::BandPsdPlan(std::size_t n, std::size_t window_len, std::size_t bin_lo,
                         std::size_t bin_hi)
    : n_(n), window_len_(window_len), bin_lo_(bin_lo), bin_hi_(bin_hi) {
  require(n >= 2 && is_power_of_two(n), "BandPsdPlan: size must be a power of two >= 2");
  require(window_len >= 1 && window_len <= n, "BandPsdPlan: window must fit the size");
  require(bin_lo <= bin_hi && bin_hi <= n / 2, "BandPsdPlan: bin range out of order");
  real_plan_ = FftPlan::get(n, FftPlan::Kind::kReal);
  const std::size_t h = n / 2;

  // The untangle turns half-transform bins Z[k] and Z[h-k] into real bins k
  // and h-k, so the band needs the pairs covering it and its mirror, clamped
  // to the pair domain [1, h/2] and merged where they overlap (a pair must
  // not run twice: the untangle is in place). Bins 0 and h come from Z[0].
  untangle_dc_ = bin_lo == 0 || bin_hi == h;
  const std::size_t kmax = h / 2;
  const auto add_range = [&](std::size_t a, std::size_t b) {
    a = std::max<std::size_t>(a, 1);
    b = std::min(b, kmax);
    if (a > b) return;
    pair_a_[pairs_] = a;
    pair_b_[pairs_] = b;
    ++pairs_;
  };
  add_range(bin_lo, bin_hi);
  add_range(h - bin_hi, h - bin_lo);
  if (pairs_ == 2) {
    if (pair_a_[0] > pair_a_[1]) {
      std::swap(pair_a_[0], pair_a_[1]);
      std::swap(pair_b_[0], pair_b_[1]);
    }
    if (pair_a_[1] <= pair_b_[0] + 1) {
      pair_b_[0] = std::max(pair_b_[0], pair_b_[1]);
      pairs_ = 1;
    }
  }
  std::vector<char> need(h, 0);  // half-transform outputs the untangle reads
  if (untangle_dc_) need[0] = 1;
  for (int r = 0; r < pairs_; ++r)
    for (std::size_t k = pair_a_[r]; k <= pair_b_[r]; ++k) need[k] = need[h - k] = 1;

  // Forward: which butterflies see two live inputs. Position p starts with
  // input rev(p) (the bit-reversed pack), live when rev(p) < live. A
  // butterfly whose hi input is padding copies lo into hi; inputs are a live
  // prefix, so a live hi always has a live lo, and a copy always repeats an
  // input (a block stays single-input until its first computed butterfly).
  const std::size_t live = (window_len + 1) / 2;
  const std::size_t* rev = real_plan_->half_plan_->bitrev_.data();
  struct Copy {
    std::size_t position, input, stage;  // input arrives after `stage`
  };
  std::vector<Copy> copies;  // a position holds at most one input, ever
  std::vector<std::int64_t> held(h);
  for (std::size_t p = 0; p < h; ++p) {
    held[p] = rev[p] < live ? static_cast<std::int64_t>(rev[p]) : kZero;
    if (held[p] >= 0) copies.push_back({p, rev[p], 0});
  }
  std::vector<std::vector<std::uint8_t>> kind;
  std::size_t stage = 0;
  for (std::size_t half = 1; half < h; half <<= 1) {
    ++stage;
    std::vector<std::uint8_t>& k_of = kind.emplace_back(h, kNone);
    for (std::size_t i = 0; i < h; i += 2 * half) {
      for (std::size_t lo = i; lo < i + half; ++lo) {
        const std::size_t hi = lo + half;
        if (held[hi] == kZero) {
          if (held[lo] == kZero) continue;
          ensure(held[lo] >= 0, "BandPsdPlan: padding beside a computed block");
          held[hi] = held[lo];
          copies.push_back({hi, static_cast<std::size_t>(held[lo]), stage});
          k_of[lo] = kCopy;
        } else {
          ensure(held[lo] != kZero, "BandPsdPlan: live input above padding");
          held[lo] = held[hi] = kComputed;
          k_of[lo] = kCompute;
        }
      }
    }
  }

  // Backward: keep the computed butterflies whose outputs are needed;
  // needed_after[s][p] says whether position p is read after stage s.
  std::vector<std::vector<char>> needed_after(stage + 1);
  needed_after[stage] = need;
  for (std::size_t s = stage; s >= 1; --s) {
    const std::size_t half = std::size_t{1} << (s - 1);
    const std::vector<char>& after = needed_after[s];
    std::vector<char>& before = needed_after[s - 1];
    before.assign(h, 0);
    std::vector<std::uint8_t>& k_of = kind[s - 1];
    for (std::size_t i = 0; i < h; i += 2 * half) {
      for (std::size_t lo = i; lo < i + half; ++lo) {
        const std::size_t hi = lo + half;
        const bool used = after[lo] || after[hi];
        if (k_of[lo] == kCompute) {
          if (used) before[lo] = before[hi] = 1;
          else k_of[lo] = kNone;
        } else if (k_of[lo] == kCopy) {
          before[lo] = used;
        }
      }
    }
  }

  // Broadcast blocks: the needed copies, merged into runs of consecutive
  // positions holding the same input.
  std::sort(copies.begin(), copies.end(),
            [](const Copy& a, const Copy& b) { return a.position < b.position; });
  for (const Copy& c : copies) {
    if (!needed_after[c.stage][c.position]) continue;
    if (!broadcasts_.empty()) {
      Broadcast& last = broadcasts_.back();
      if (last.src == c.input && last.dst + last.count == c.position) {
        ++last.count;
        continue;
      }
    }
    broadcasts_.push_back({static_cast<std::uint32_t>(c.input),
                           static_cast<std::uint32_t>(c.position), 1});
  }

  // Butterfly runs: per stage, each block's maximal ranges of kept
  // butterflies; consecutive blocks with the same range share one run.
  for (std::size_t s = 1; s <= stage; ++s) {
    const std::uint32_t half = std::uint32_t{1} << (s - 1);
    const std::vector<std::uint8_t>& k_of = kind[s - 1];
    for (std::uint32_t i = 0; i < h; i += 2 * half) {
      for (std::uint32_t k = 0; k < half;) {
        if (k_of[i + k] != kCompute) {
          ++k;
          continue;
        }
        std::uint32_t end = k;
        while (end < half && k_of[i + end] == kCompute) ++end;
        butterflies_ += end - k;
        simd::ButterflyRun* last = runs_.empty() ? nullptr : &runs_.back();
        if (last && last->h == half && last->k0 == k && last->count == end - k &&
            last->lo + 2 * half * last->blocks == i + k) {
          ++last->blocks;
        } else {
          runs_.push_back({half, i + k, k, end - k, 1});
        }
        k = end;
      }
    }
  }
}

void BandPsdPlan::execute_x4(const double* const windows[4], double* out,
                             double scale, std::vector<double>& work) const {
  if (fault::point("fft.execute")) fail("injected fault: fft.execute");
  const std::size_t h = n_ / 2;
  work.resize(8 * (h + 1));
  double* z = work.data();

  // Lane-major layout: complex position k of lane l at z[8k + l] (re) and
  // z[8k + 4 + l] (im). Input j is (x[2j], x[2j+1]); past the window, zero.
  for (const Broadcast& b : broadcasts_) {
    const std::size_t i = 2 * std::size_t{b.src};
    double row[8];
    for (std::size_t l = 0; l < 4; ++l) {
      const double* x = windows[l];
      row[l] = x ? x[i] : 0.0;
      row[4 + l] = x && i + 1 < window_len_ ? x[i + 1] : 0.0;
    }
    double* d = z + 8 * std::size_t{b.dst};
    for (std::size_t c = 0; c < b.count; ++c) std::copy(row, row + 8, d + 8 * c);
  }
  const FftPlan& half = *real_plan_->half_plan_;
  simd::active().butterfly_runs_x4_d(
      z, reinterpret_cast<const double*>(half.twiddles_.data()), runs_.data(),
      runs_.size());

  // Untangle (FftPlan's untangle_real, per lane) over the band's pairs.
  const Complex* w = real_plan_->real_twiddles_.data();
  if (untangle_dc_) {
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
  for (int r = 0; r < pairs_; ++r) {
    for (std::size_t k = pair_a_[r]; k <= pair_b_[r]; ++k) {
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
  for (std::size_t k = bin_lo_; k <= bin_hi_; ++k) {
    const double* s = z + 8 * k;
    double* o = out + 4 * (k - bin_lo_);
    for (std::size_t l = 0; l < 4; ++l)
      o[l] = (s[l] * s[l] + s[4 + l] * s[4 + l]) * scale;
  }
}

}  // namespace earsonar::dsp
