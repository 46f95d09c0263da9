// Discrete cosine transform (type II), used as the final step of MFCC
// extraction (paper §IV-C2).
#pragma once

#include <span>
#include <vector>

namespace earsonar::dsp {

/// Orthonormal DCT-II of `input`.
std::vector<double> dct2(std::span<const double> input);

/// Orthonormal DCT-III (the inverse of dct2).
std::vector<double> idct2(std::span<const double> input);

/// First `count` DCT-II coefficients of `input` (count <= input.size()),
/// bit-identical to the first `count` values of dct2(input). Only the kept
/// rows are computed, against a cosine basis each thread caches for the last
/// input size it saw (n * count doubles).
std::vector<double> dct2_truncated(std::span<const double> input, std::size_t count);

}  // namespace earsonar::dsp
