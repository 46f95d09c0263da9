#include "dsp/dct.hpp"

#include <cmath>
#include <numbers>

#include "common/error.hpp"

namespace earsonar::dsp {

namespace {
constexpr double kPi = std::numbers::pi;

// The first `rows` rows of the n-point DCT-II cosine basis, row-major with
// stride n. Each thread keeps the basis of the last size it transformed,
// extends it when more rows are asked for and rebuilds it when the size
// changes, so steady callers (the 24-band MFCC) pay no cos() per call and
// nothing is shared between threads. The returned pointer is valid until
// this thread's next call.
const double* dct2_basis(std::size_t n, std::size_t rows) {
  struct Basis {
    std::size_t n = 0;
    std::size_t rows = 0;
    std::vector<double> cos;
  };
  thread_local Basis basis;
  if (basis.n != n) basis = {n, 0, {}};
  if (basis.rows < rows) {
    basis.cos.resize(rows * n);
    for (std::size_t k = basis.rows; k < rows; ++k)
      for (std::size_t i = 0; i < n; ++i)
        basis.cos[k * n + i] = std::cos(kPi / static_cast<double>(n) *
                                        (static_cast<double>(i) + 0.5) *
                                        static_cast<double>(k));
    basis.rows = rows;
  }
  return basis.cos.data();
}

}  // namespace

std::vector<double> dct2(std::span<const double> input) {
  return dct2_truncated(input, input.size());
}

std::vector<double> idct2(std::span<const double> input) {
  require_nonempty("idct2 input", input.size());
  const std::size_t n = input.size();
  std::vector<double> out(n);
  const double scale0 = std::sqrt(1.0 / static_cast<double>(n));
  const double scale = std::sqrt(2.0 / static_cast<double>(n));
  for (std::size_t i = 0; i < n; ++i) {
    double acc = input[0] * scale0;
    for (std::size_t k = 1; k < n; ++k)
      acc += input[k] * scale *
             std::cos(kPi / static_cast<double>(n) * (static_cast<double>(i) + 0.5) *
                      static_cast<double>(k));
    out[i] = acc;
  }
  return out;
}

std::vector<double> dct2_truncated(std::span<const double> input, std::size_t count) {
  require(count <= input.size(), "dct2_truncated: count exceeds input size");
  require_nonempty("dct2 input", input.size());
  const std::size_t n = input.size();
  const double* basis = dct2_basis(n, count);
  std::vector<double> out(count);
  const double scale0 = std::sqrt(1.0 / static_cast<double>(n));
  const double scale = std::sqrt(2.0 / static_cast<double>(n));
  for (std::size_t k = 0; k < count; ++k) {
    const double* row = basis + k * n;
    double acc = 0.0;
    for (std::size_t i = 0; i < n; ++i) acc += input[i] * row[i];
    out[k] = acc * (k == 0 ? scale0 : scale);
  }
  return out;
}

}  // namespace earsonar::dsp
