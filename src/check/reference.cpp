#include "check/reference.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numbers>
#include <numeric>

#include "common/error.hpp"
#include "common/units.hpp"
#include "dsp/fft.hpp"
#include "dsp/fft_plan.hpp"

namespace earsonar::check {

namespace {

constexpr double kPi = std::numbers::pi;

// Twiddle e^{sign * 2*pi*i * (k*n mod N) / N}. Reducing the index modulo N
// before the angle computation keeps the argument in [0, 2*pi), so the naive
// sums stay accurate enough to serve as the oracle even at n = 8192.
Complex unit_twiddle(std::size_t k, std::size_t n, std::size_t size, double sign) {
  const std::size_t reduced = (k * n) % size;
  const double angle = sign * 2.0 * kPi * static_cast<double>(reduced) /
                       static_cast<double>(size);
  return {std::cos(angle), std::sin(angle)};
}

}  // namespace

std::vector<Complex> dft_naive(std::span<const Complex> input) {
  require_nonempty("dft_naive input", input.size());
  const std::size_t n = input.size();
  std::vector<Complex> out(n);
  for (std::size_t k = 0; k < n; ++k) {
    Complex acc{0.0, 0.0};
    for (std::size_t i = 0; i < n; ++i) acc += input[i] * unit_twiddle(k, i, n, -1.0);
    out[k] = acc;
  }
  return out;
}

std::vector<Complex> idft_naive(std::span<const Complex> input) {
  require_nonempty("idft_naive input", input.size());
  const std::size_t n = input.size();
  std::vector<Complex> out(n);
  for (std::size_t k = 0; k < n; ++k) {
    Complex acc{0.0, 0.0};
    for (std::size_t i = 0; i < n; ++i) acc += input[i] * unit_twiddle(k, i, n, 1.0);
    out[k] = acc / static_cast<double>(n);
  }
  return out;
}

std::vector<Complex> rdft_naive(std::span<const double> input) {
  require_nonempty("rdft_naive input", input.size());
  const std::size_t n = input.size();
  std::vector<Complex> out(n / 2 + 1);
  for (std::size_t k = 0; k < out.size(); ++k) {
    Complex acc{0.0, 0.0};
    for (std::size_t i = 0; i < n; ++i) acc += input[i] * unit_twiddle(k, i, n, -1.0);
    out[k] = acc;
  }
  return out;
}

std::vector<double> power_spectrum_naive(std::span<const double> input) {
  const std::vector<Complex> bins = rdft_naive(input);
  std::vector<double> power(bins.size());
  for (std::size_t i = 0; i < bins.size(); ++i)
    power[i] = std::norm(bins[i]) / static_cast<double>(input.size());
  return power;
}

double dtft_magnitude_naive(std::span<const double> signal, double frequency_hz,
                            double sample_rate) {
  require_nonempty("dtft_magnitude_naive input", signal.size());
  require_positive("sample_rate", sample_rate);
  const double w = 2.0 * kPi * frequency_hz / sample_rate;
  double re = 0.0, im = 0.0;
  for (std::size_t n = 0; n < signal.size(); ++n) {
    const double angle = w * static_cast<double>(n);
    re += signal[n] * std::cos(angle);
    im -= signal[n] * std::sin(angle);
  }
  return std::hypot(re, im);
}

std::vector<double> convolve_naive(std::span<const double> a, std::span<const double> b) {
  require_nonempty("convolve_naive a", a.size());
  require_nonempty("convolve_naive b", b.size());
  std::vector<double> out(a.size() + b.size() - 1, 0.0);
  for (std::size_t k = 0; k < out.size(); ++k) {
    const std::size_t i_lo = k >= b.size() - 1 ? k - (b.size() - 1) : 0;
    const std::size_t i_hi = std::min(k, a.size() - 1);
    double acc = 0.0;
    for (std::size_t i = i_lo; i <= i_hi; ++i) acc += a[i] * b[k - i];
    out[k] = acc;
  }
  return out;
}

std::vector<double> cross_correlate_naive(std::span<const double> a,
                                          std::span<const double> b) {
  require_nonempty("cross_correlate_naive a", a.size());
  require_nonempty("cross_correlate_naive b", b.size());
  // r[m] = sum_i a[i] * b[i - (m - (|b|-1))]: convolution of a with reversed b.
  std::vector<double> reversed(b.rbegin(), b.rend());
  return convolve_naive(a, reversed);
}

std::vector<double> dct2_naive(std::span<const double> input) {
  require_nonempty("dct2_naive input", input.size());
  const std::size_t n = input.size();
  std::vector<double> out(n);
  for (std::size_t k = 0; k < n; ++k) {
    double acc = 0.0;
    for (std::size_t i = 0; i < n; ++i)
      acc += input[i] * std::cos(kPi * (2.0 * static_cast<double>(i) + 1.0) *
                                 static_cast<double>(k) / (2.0 * static_cast<double>(n)));
    const double scale =
        k == 0 ? std::sqrt(1.0 / static_cast<double>(n)) : std::sqrt(2.0 / static_cast<double>(n));
    out[k] = acc * scale;
  }
  return out;
}

double percentile_naive(std::span<const double> xs, double p) {
  require_nonempty("percentile_naive input", xs.size());
  require_in_range("percentile_naive p", p, 0.0, 100.0);
  std::vector<double> sorted(xs.begin(), xs.end());
  std::sort(sorted.begin(), sorted.end());
  if (sorted.size() == 1) return sorted.front();
  const double pos = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

std::vector<double> biquad_cascade_df1_naive(const std::vector<dsp::Biquad>& sections,
                                             std::span<const double> input) {
  std::vector<double> x(input.begin(), input.end());
  for (const dsp::Biquad& s : sections) {
    std::vector<double> y(x.size());
    double x1 = 0.0, x2 = 0.0, y1 = 0.0, y2 = 0.0;
    for (std::size_t n = 0; n < x.size(); ++n) {
      y[n] = s.b0 * x[n] + s.b1 * x1 + s.b2 * x2 - s.a1 * y1 - s.a2 * y2;
      x2 = x1;
      x1 = x[n];
      y2 = y1;
      y1 = y[n];
    }
    x = std::move(y);
  }
  return x;
}

std::vector<double> band_mfcc_naive(const dsp::Spectrum& spectrum,
                                    std::size_t filter_count,
                                    std::size_t coefficient_count) {
  require_nonempty("band_mfcc_naive spectrum", spectrum.size());
  require(coefficient_count >= 1 && coefficient_count <= filter_count,
          "band_mfcc_naive: coefficient_count must be in [1, filter_count]");
  const auto to_mel = [](double hz) { return 2595.0 * std::log10(1.0 + hz / 700.0); };
  const auto to_hz = [](double mel) {
    return 700.0 * (std::pow(10.0, mel / 2595.0) - 1.0);
  };

  // 1. filter_count + 2 edges, evenly spaced in mel across the band grid.
  const double mel_lo = to_mel(spectrum.frequency_hz.front());
  const double mel_hi = to_mel(spectrum.frequency_hz.back());
  std::vector<double> edges(filter_count + 2);
  for (std::size_t i = 0; i < edges.size(); ++i)
    edges[i] = to_hz(mel_lo + (mel_hi - mel_lo) * static_cast<double>(i) /
                                  static_cast<double>(edges.size() - 1));

  // 2. literal triangles at the grid points, floored log of each energy.
  std::vector<double> log_energies(filter_count);
  for (std::size_t f = 0; f < filter_count; ++f) {
    const double left = edges[f], center = edges[f + 1], right = edges[f + 2];
    double acc = 0.0;
    for (std::size_t b = 0; b < spectrum.size(); ++b) {
      const double freq = spectrum.frequency_hz[b];
      double w = 0.0;
      if (freq > left && freq < center) w = (freq - left) / (center - left);
      else if (freq >= center && freq < right) w = (right - freq) / (right - center);
      acc += w * spectrum.psd[b];
    }
    log_energies[f] = std::log(std::max(acc, 1e-12));
  }

  // 3. naive DCT-II, leading coefficients only.
  std::vector<double> mfcc = dct2_naive(log_energies);
  mfcc.resize(coefficient_count);
  return mfcc;
}

std::vector<double> echo_psd_row_unpruned(std::span<const double> signal,
                                          std::ptrdiff_t start, std::size_t length,
                                          double sample_rate,
                                          const core::SpectrumConfig& config,
                                          const audio::FmcwConfig& probe,
                                          std::span<const double> reference) {
  const std::size_t n = config.fft_size;
  require(length <= n, "echo_psd_row_unpruned: window longer than the transform");
  std::vector<double> padded(n, 0.0);
  for (std::size_t j = 0; j < length; ++j) {
    const std::ptrdiff_t idx = start + static_cast<std::ptrdiff_t>(j);
    if (idx >= 0 && idx < static_cast<std::ptrdiff_t>(signal.size()))
      padded[j] = signal[static_cast<std::size_t>(idx)];
  }
  const auto plan = dsp::FftPlan::get(n, dsp::FftPlan::Kind::kReal);
  dsp::Spectrum full;
  full.psd.resize(plan->real_bins());
  dsp::FftScratch scratch;
  plan->power_spectrum(padded, full.psd, 1.0 / static_cast<double>(n), scratch);
  full.frequency_hz.resize(full.psd.size());
  for (std::size_t k = 0; k < full.psd.size(); ++k)
    full.frequency_hz[k] = dsp::bin_frequency(k, n, sample_rate);
  std::vector<double> row =
      dsp::resample_spectrum(full, probe.start_hz, probe.end_hz(), config.band_bins)
          .psd;
  if (!reference.empty()) {
    require(reference.size() == row.size(), "echo_psd_row_unpruned: reference size");
    for (std::size_t i = 0; i < row.size(); ++i) row[i] /= reference[i];
  }
  return row;
}

std::vector<double> welch_psd_naive(std::span<const double> signal, double sample_rate,
                                    std::size_t segment) {
  require_nonempty("welch_psd_naive input", signal.size());
  require(segment >= 2 && segment <= signal.size(),
          "welch_psd_naive: segment must be in [2, signal length]");
  require_positive("sample_rate", sample_rate);

  std::vector<double> window(segment);
  for (std::size_t i = 0; i < segment; ++i)
    window[i] = 0.5 - 0.5 * std::cos(2.0 * kPi * static_cast<double>(i) /
                                     static_cast<double>(segment - 1));
  double window_energy = 0.0;
  for (double w : window) window_energy += w * w;
  const double norm = 1.0 / (sample_rate * window_energy);

  std::vector<double> acc(segment / 2 + 1, 0.0);
  std::size_t count = 0;
  for (std::size_t start = 0; start + segment <= signal.size(); start += segment / 2) {
    std::vector<double> xw(segment);
    for (std::size_t i = 0; i < segment; ++i) xw[i] = signal[start + i] * window[i];
    const std::vector<Complex> bins = rdft_naive(xw);
    for (std::size_t i = 0; i < acc.size(); ++i) {
      const double p = std::norm(bins[i]) * norm;
      // One-sided spectrum: double everything except DC and Nyquist.
      const bool edge = (i == 0) || (segment % 2 == 0 && i == acc.size() - 1);
      acc[i] += edge ? p : 2.0 * p;
    }
    ++count;
  }
  for (double& v : acc) v /= static_cast<double>(count);
  return acc;
}

std::vector<core::Event> event_detect_naive(std::span<const double> signal,
                                            const core::EventDetectorConfig& config) {
  require_nonempty("event_detect_naive input", signal.size());
  const std::size_t n = signal.size();
  std::vector<double> power(n);
  for (std::size_t i = 0; i < n; ++i) power[i] = signal[i] * signal[i];

  // Trailing running sum over `smooth` samples, its mean stored at the
  // window's center; the last half-window of centers stays zero.
  const std::size_t s = std::min(config.smooth, n);
  const std::size_t half = s / 2;
  std::vector<double> envelope(n, 0.0);
  double run = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    run += power[i];
    if (i >= s) run -= power[i - s];
    envelope[i >= half ? i - half : 0] =
        run / static_cast<double>(std::min(i + 1, s));
  }
  double global_mean = 0.0;
  for (double p : power) global_mean += p;
  global_mean /= static_cast<double>(n);
  const double floor_env = std::max(percentile_naive(envelope, 50.0), 1e-30);

  const double alpha = 1.0 / static_cast<double>(config.window);
  double mu = envelope[0];
  double sigma = 0.0;
  std::vector<core::Event> events;
  bool in_event = false;
  core::Event current;
  for (std::size_t i = 0; i < n; ++i) {
    const double e = envelope[i];
    if (!in_event) {
      if (e > mu + config.start_threshold_k * sigma && e > global_mean) {
        in_event = true;
        current.start = i;
      } else {
        const double dev = std::abs(e - mu);
        mu = alpha * e + (1.0 - alpha) * mu;
        sigma = alpha * dev + (1.0 - alpha) * sigma;
      }
      continue;
    }
    if (i - current.start >= config.max_length || e < global_mean || i + 1 == n) {
      current.end = i + 1;
      in_event = false;
      double peak = 0.0;
      for (std::size_t j = current.start; j < current.end; ++j)
        peak = std::max(peak, envelope[j]);
      if (current.length() >= config.min_length && peak >= config.prominence * global_mean &&
          peak >= config.floor_prominence * floor_env)
        events.push_back(current);
    }
  }

  std::vector<core::Event> merged;
  for (core::Event e : events) {
    e.start = e.start > half ? e.start - half : 0;
    e.end = std::min(n, e.end + half);
    if (!merged.empty() && e.start < merged.back().end + config.merge_gap &&
        e.end - merged.back().start <= config.max_length)
      merged.back().end = std::max(merged.back().end, e.end);
    else
      merged.push_back(e);
  }
  return merged;
}

std::optional<core::EchoSegment> segment_naive(std::span<const double> signal,
                                               const core::Event& event,
                                               const core::SegmenterConfig& config,
                                               const audio::FmcwConfig& probe) {
  require(event.start < event.end && event.end <= signal.size(),
          "segment_naive: event outside signal");
  const std::span<const double> x = signal.subspan(event.start, event.length());
  const double fs = probe.sample_rate;
  const double min_offset = echo_delay_seconds(config.min_distance_m) * fs;
  const double max_offset = echo_delay_seconds(config.max_distance_m) * fs;
  if (static_cast<double>(x.size()) < min_offset + 4.0) return std::nullopt;

  // Direct pulse: T/2 after the emission-grid point nearest the event start.
  const double interval = probe.interval_s * fs;
  const double grid_start =
      std::round(static_cast<double>(event.start) / interval) * interval;
  const auto direct_rel = static_cast<std::ptrdiff_t>(
                              std::lround(grid_start + probe.duration_s * fs / 2.0)) -
                          static_cast<std::ptrdiff_t>(event.start);
  const auto direct = static_cast<std::size_t>(
      std::clamp<std::ptrdiff_t>(direct_rel, 0, static_cast<std::ptrdiff_t>(x.size()) - 1));

  // Every local maximum of |x * x| that passes the parity test.
  struct Candidate {
    double center, ratio, energy;
  };
  std::vector<Candidate> candidates;
  const std::size_t half = config.min_support / 2;
  if (x.size() >= config.min_support) {
    const std::vector<double> ac = convolve_naive(x, x);
    for (std::size_t m = 1; m + 1 < ac.size(); ++m) {
      if (!(std::abs(ac[m]) >= std::abs(ac[m - 1]) && std::abs(ac[m]) >= std::abs(ac[m + 1])))
        continue;
      const double n0 = static_cast<double>(m) / 2.0;
      if (n0 < static_cast<double>(half) ||
          n0 > static_cast<double>(x.size() - 1) - static_cast<double>(half))
        continue;
      // Even/odd energies of the support y = x[y0, y0 + len) about n0,
      // zero-extended outside it.
      const std::size_t y0 = static_cast<std::size_t>(std::floor(n0)) - half;
      const std::size_t len = std::min(config.min_support, x.size() - y0);
      const double c = n0 - static_cast<double>(y0);
      double even = 0.0, odd = 0.0;
      for (std::size_t i = 0; i < len; ++i) {
        const double mirror_at = 2.0 * c - static_cast<double>(i);
        const double mirrored =
            mirror_at < 0.0 || mirror_at > static_cast<double>(len - 1)
                ? 0.0
                : x[y0 + static_cast<std::size_t>(mirror_at)];
        const double xe = 0.5 * (x[y0 + i] + mirrored);
        const double xo = 0.5 * (x[y0 + i] - mirrored);
        even += xe * xe;
        odd += xo * xo;
      }
      const double total = even + odd;
      if (total <= 0.0) continue;
      const double ratio = std::max(even, odd) / total;
      if (ratio >= config.parity_threshold) candidates.push_back({n0, ratio, total});
    }
  }

  core::EchoSegment best;
  best.event_start = event.start;
  best.direct_peak_index = event.start + direct;
  bool found = false;
  double best_score = 0.0;
  for (const Candidate& cand : candidates) {
    const double offset = cand.center - static_cast<double>(direct);
    if (offset < min_offset || offset > max_offset) continue;
    const double score = cand.ratio * std::sqrt(cand.energy);
    if (score <= best_score) continue;
    best_score = score;
    best.peak_index = event.start + static_cast<std::size_t>(std::lround(cand.center));
    best.distance_m = samples_to_distance_m(offset, fs);
    best.parity_ratio = cand.ratio;
    found = true;
  }
  if (found) return best;

  const std::size_t lo = direct + static_cast<std::size_t>(std::lround(min_offset));
  const std::size_t hi = std::min(
      x.size(), direct + static_cast<std::size_t>(std::lround(max_offset)) + 1);
  if (lo + 1 >= hi) return std::nullopt;
  std::size_t peak = lo;
  for (std::size_t i = lo; i < hi; ++i)
    if (std::abs(x[i]) > std::abs(x[peak])) peak = i;
  best.peak_index = event.start + peak;
  best.distance_m = samples_to_distance_m(static_cast<double>(peak - direct), fs);
  best.parity_ratio = 0.0;
  best.from_fallback = true;
  return best;
}

std::vector<double> laplacian_scores_naive(const ml::Matrix& data,
                                          const ml::LaplacianConfig& config) {
  require_nonempty("laplacian_scores_naive data", data.size());
  require(config.neighbors >= 1, "LaplacianConfig: neighbors must be >= 1");
  require(config.heat_sigma > 0.0, "LaplacianConfig: heat_sigma must be > 0");
  const std::size_t n = data.size();
  const std::size_t d = data.front().size();
  require_nonempty("laplacian_scores_naive feature dimension", d);
  for (const auto& row : data)
    require(row.size() == d, "laplacian_scores_naive: ragged matrix");
  require(n >= 2, "laplacian_scores_naive: need >= 2 samples");

  const std::size_t k = std::min(config.neighbors, n - 1);

  // Pairwise distances + kNN sets.
  std::vector<std::vector<double>> dist(n, std::vector<double>(n, 0.0));
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i + 1; j < n; ++j) {
      double acc = 0.0;
      for (std::size_t f = 0; f < d; ++f) {
        const double diff = data[i][f] - data[j][f];
        acc += diff * diff;
      }
      dist[i][j] = dist[j][i] = acc;
    }

  std::vector<std::vector<std::size_t>> knn(n);
  double mean_knn_dist2 = 0.0;
  std::size_t knn_edges = 0;
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), std::size_t{0});
    // Stable: equal distances keep ascending index order.
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) { return dist[i][a] < dist[i][b]; });
    for (std::size_t j = 0; j < n && knn[i].size() < k; ++j) {
      if (order[j] == i) continue;
      knn[i].push_back(order[j]);
      mean_knn_dist2 += dist[i][order[j]];
      ++knn_edges;
    }
  }
  mean_knn_dist2 = std::max(mean_knn_dist2 / static_cast<double>(knn_edges), 1e-12);
  const double t = config.heat_sigma * mean_knn_dist2;

  // Symmetric heat-kernel weight matrix on the kNN graph.
  std::vector<std::vector<double>> w(n, std::vector<double>(n, 0.0));
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j : knn[i]) {
      const double weight = std::exp(-dist[i][j] / t);
      w[i][j] = std::max(w[i][j], weight);
      w[j][i] = w[i][j];
    }

  std::vector<double> degree(n, 0.0);
  double total_degree = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) degree[i] += w[i][j];
    total_degree += degree[i];
  }

  std::vector<double> scores(d, std::numeric_limits<double>::max());
  for (std::size_t f = 0; f < d; ++f) {
    // Center the feature against the degree-weighted mean (removes the
    // trivial all-ones eigenvector of the graph Laplacian).
    double weighted_mean = 0.0;
    for (std::size_t i = 0; i < n; ++i) weighted_mean += data[i][f] * degree[i];
    weighted_mean /= std::max(total_degree, 1e-12);

    double smoothness = 0.0;  // f~^T L f~  = sum_ij w_ij (fi - fj)^2 / 2
    double variance = 0.0;    // f~^T D f~
    for (std::size_t i = 0; i < n; ++i) {
      const double fi = data[i][f] - weighted_mean;
      variance += fi * fi * degree[i];
      for (std::size_t j = 0; j < n; ++j) {
        const double fj = data[j][f] - weighted_mean;
        smoothness += w[i][j] * (fi - fj) * (fi - fj);
      }
    }
    smoothness /= 2.0;
    // Constant features carry no information: keep score at +inf-like max.
    if (variance > 1e-12) scores[f] = smoothness / variance;
  }
  return scores;
}

}  // namespace earsonar::check
