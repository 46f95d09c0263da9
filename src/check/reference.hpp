// Deliberately naive reference implementations for the differential oracle.
//
// Each function here is the textbook form of an optimized kernel elsewhere in
// the library: O(n^2) DFT sums instead of the planned FFT, a full sort
// instead of nth_element, a per-sample direct-form-I recurrence instead of
// the transposed cascade, the literal band-MFCC formula chain instead of the
// feature extractor's. They are written for obviousness, not speed, and share
// no code with the implementations they check — that independence is the
// point. tests/oracle/ drives each optimized/reference pair over the seeded
// case generator (src/check/cases.hpp) under the tolerance policy table
// (src/check/tolerance.hpp).
#pragma once

#include <complex>
#include <cstddef>
#include <optional>
#include <span>
#include <vector>

#include "core/absorption.hpp"
#include "core/event_detect.hpp"
#include "core/segment.hpp"
#include "dsp/biquad.hpp"
#include "dsp/spectrum.hpp"
#include "ml/laplacian.hpp"

namespace earsonar::check {

using Complex = std::complex<double>;

/// Textbook forward DFT: X[k] = sum_n x[n] e^{-2*pi*i*k*n/N}.
std::vector<Complex> dft_naive(std::span<const Complex> input);

/// Textbook inverse DFT (includes the 1/N normalization).
std::vector<Complex> idft_naive(std::span<const Complex> input);

/// dft_naive of a real signal, first N/2+1 bins (rfft's contract).
std::vector<Complex> rdft_naive(std::span<const double> input);

/// |X[k]|^2 / N over the non-negative-frequency bins (power_spectrum's
/// contract), via the naive real DFT.
std::vector<double> power_spectrum_naive(std::span<const double> input);

/// Literal DTFT magnitude |sum_n x[n] e^{-2*pi*i*f*n/fs}| at one frequency —
/// the reference for Goertzel at bin-exact *and* off-bin frequencies.
double dtft_magnitude_naive(std::span<const double> signal, double frequency_hz,
                            double sample_rate);

/// Direct O(NM) convolution, gather form (out[k] = sum_i a[i] b[k-i]).
std::vector<double> convolve_naive(std::span<const double> a, std::span<const double> b);

/// Direct full cross-correlation with dsp::cross_correlate's lag layout.
std::vector<double> cross_correlate_naive(std::span<const double> a,
                                          std::span<const double> b);

/// Literal orthonormal DCT-II.
std::vector<double> dct2_naive(std::span<const double> input);

/// Full-sort percentile with the same two-point linear interpolation contract
/// as earsonar::percentile.
double percentile_naive(std::span<const double> xs, double p);

/// Per-sample direct-form-I cascade: each section filters the whole signal
/// with the explicit difference equation before the next section runs.
std::vector<double> biquad_cascade_df1_naive(const std::vector<dsp::Biquad>& sections,
                                             std::span<const double> input);

/// Literal band-MFCC chain over a band spectrum on a uniform grid: HTK mel
/// triangles with filter_count + 2 edges spaced evenly in mel between the
/// grid's first and last frequency, each weight applied at the grid points,
/// log floored at 1e-12, naive DCT-II, truncate to coefficient_count.
/// Mirrors core::FeatureExtractor::band_mfcc.
std::vector<double> band_mfcc_naive(const dsp::Spectrum& spectrum,
                                    std::size_t filter_count,
                                    std::size_t coefficient_count);

/// One band-PSD row of core::EchoSpectrumExtractor without the pruned
/// transform: samples [start, start + length) of `signal` (zero outside it)
/// zero-padded to config.fft_size, dsp::FftPlan::power_spectrum over every
/// bin scaled by 1/fft_size, dsp::resample_spectrum onto config.band_bins
/// points across the probe's chirp band, then divided element-wise by
/// `reference` unless it is empty. The reference of the `dsp.psd.band` pair
/// at the extractor level.
std::vector<double> echo_psd_row_unpruned(std::span<const double> signal,
                                          std::ptrdiff_t start, std::size_t length,
                                          double sample_rate,
                                          const core::SpectrumConfig& config,
                                          const audio::FmcwConfig& probe,
                                          std::span<const double> reference = {});

/// core::AdaptiveEventDetector::detect written out plainly: a materialized
/// power array, the same trailing running sum stored at each window's center,
/// and the noise-floor gate against a full-sort median (percentile_naive) of
/// the whole envelope, computed up front.
std::vector<core::Event> event_detect_naive(std::span<const double> signal,
                                            const core::EventDetectorConfig& config);

/// core::ParityEchoSegmenter::segment written out plainly: the direct O(L^2)
/// auto-convolution over every lag (convolve_naive), the parity test at every
/// local maximum of its magnitude, and only then the echo-distance window
/// behind the grid-anchored direct pulse; the strongest |x| sample in that
/// window when no candidate qualifies. `signal` is the whole recording,
/// sampled at probe.sample_rate, and `event` indexes into it; the emission
/// grid is the probe's (probe.interval_s, probe.duration_s).
std::optional<core::EchoSegment> segment_naive(std::span<const double> signal,
                                               const core::Event& event,
                                               const core::SegmenterConfig& config,
                                               const audio::FmcwConfig& probe);

/// ml::laplacian_scores written out densely: the full n x n distance and
/// heat-kernel weight matrices, a full stable sort of every row to pick the k
/// nearest (ties by ascending index), and the degree and smoothness sums over
/// all n^2 pairs.
std::vector<double> laplacian_scores_naive(const ml::Matrix& data,
                                           const ml::LaplacianConfig& config = {});

/// Naive Welch PSD: per-segment Hann periodogram via the naive DFT, 50%
/// overlap, averaged — dsp::welch_psd's contract. `segment == signal.size()`
/// degenerates to the single-window periodogram.
std::vector<double> welch_psd_naive(std::span<const double> signal, double sample_rate,
                                    std::size_t segment);

}  // namespace earsonar::check
