#include "dsp/envelope.hpp"

#include <algorithm>
#include <cstdint>

#include "common/error.hpp"

namespace earsonar::dsp {

EnvelopeFold::EnvelopeFold(std::size_t smooth_length, double* envelope_row)
    : smooth(smooth_length), row(envelope_row) {
  require(smooth >= 1, "EnvelopeFold: smooth must be >= 1");
}

void EnvelopeFold::fold(const double* x, std::size_t n) {
  const std::size_t s = smooth;
  const std::size_t half = s / 2;
  double r = run;
  double total = sum;
  std::size_t i = count;
  // Warm-up: the window grows one sample at a time. Center 0 is rewritten
  // until i reaches the half-width; from then on each center is final when
  // written, so it is counted at once.
  for (; i < std::min(n, half); ++i) {
    add_power(x[i], r, total);
    row[0] = r / static_cast<double>(i + 1);
  }
  for (; i < std::min(n, s); ++i) {
    add_power(x[i], r, total);
    row[i - half] = r / static_cast<double>(i + 1);
    histogram.add(row[i - half]);
  }
  const double window = static_cast<double>(s);
  for (; i < n; ++i) {
    row[i - half] = envelope_full_step(x[i], x[i - s], window, r, total);
    histogram.add(row[i - half]);
  }
  run = r;
  sum = total;
  count = std::max(count, n);
}

void EnvelopeFold::close() {
  require(count >= smooth, "EnvelopeFold::close: fewer samples than the window");
  const std::size_t half = smooth / 2;
  std::fill(row + (count - half), row + count, 0.0);
  histogram.add(0.0, static_cast<std::uint32_t>(half));
}

}  // namespace earsonar::dsp
