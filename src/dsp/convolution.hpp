// Convolution and correlation. The echo segmenter's parity decomposition
// (paper §IV-B3) is built on the *auto-convolution* (x * x)[m], whose local
// maxima mark centers of even/odd symmetry in the pulse train.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace earsonar::dsp {

/// Full linear convolution; picks the direct or FFT path by size.
std::vector<double> convolve(std::span<const double> a, std::span<const double> b);

/// Direct O(N*M) convolution (reference implementation, used for small sizes
/// and as the oracle in tests).
std::vector<double> convolve_direct(std::span<const double> a, std::span<const double> b);

/// FFT-based convolution (zero-padded to the next power of two).
std::vector<double> convolve_fft(std::span<const double> a, std::span<const double> b);

/// Auto-convolution (x * x); length 2N-1. Peak positions m correspond to
/// symmetry centers at m/2 in the original sequence.
std::vector<double> autoconvolve(std::span<const double> x);

/// Lags [first, last) of autoconvolve(x), bit-identical to slicing the full
/// result; requires first <= last <= 2N-1. Where autoconvolve takes the
/// direct path (N <= 64) each lag is gathered on its own in the direct sum's
/// order, so a short window costs only its own lags; otherwise the FFT
/// result is sliced.
std::vector<double> autoconvolve_range(std::span<const double> x, std::size_t first,
                                       std::size_t last);

/// Full cross-correlation r[k] = sum_n a[n] * b[n - k + (len(b)-1)],
/// length N+M-1, lag k - (len(b)-1).
std::vector<double> cross_correlate(std::span<const double> a, std::span<const double> b);

}  // namespace earsonar::dsp
