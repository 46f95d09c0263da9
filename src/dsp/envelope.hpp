// The adaptive event detector's power envelope (paper §IV-B2), folded one
// filtered sample at a time.
//
// core::AdaptiveEventDetector thresholds A(i), the mean of x^2 over a
// `smooth`-sample window stored at the window's center, against the global
// mean power, and gates peaks on the median of A. An EnvelopeFold carries
// everything that needs from a pass over x: the moving sum, the sum of every
// power, the envelope row and a MedianBracketCounter of its values. It folds
// samples in index order and may stop and resume anywhere, so a streaming
// session folds each chunk as the band-pass produces it (the four-section
// band-pass wavefront folds the samples it filters in the same loop, see
// simd::KernelSet::bandpass_wavefront4_d) and the detector only closes and
// scans the result.
//
// The fold step is written once, here, and only earsonar_dsp (built with
// -ffp-contract=off) compiles it: fold() below is the reference loop over it,
// and the fused kernel runs the same expressions, so both produce the same
// row, sums and histogram bit for bit.
#pragma once

#include <cstddef>

#include "common/stats.hpp"

namespace earsonar::dsp {

/// One sample's power enters the global and the moving sums, in that order.
inline void add_power(double v, double& run, double& sum) {
  const double p = v * v;
  sum += p;
  run += p;
}

/// The step of a sample with a full window behind it: its power enters, the
/// power of `leaving` (the sample `smooth` places back) leaves the moving
/// sum, and the window mean is the sample's envelope value.
inline double envelope_full_step(double v, double leaving, double window, double& run,
                                 double& sum) {
  add_power(v, run, sum);
  run -= leaving * leaving;
  return run / window;
}

/// The running state of the power envelope of one sample sequence x.
///
/// Folding sample i writes center i - smooth/2 of `row` (center 0 for the
/// first smooth/2 samples, each rewrite replacing the last) and, from
/// i = smooth/2 on, counts it into `histogram`. close() then writes the last
/// smooth/2 centers, which never receive a completed moving average, as
/// zeros. A fold over a whole recording of n samples uses
/// smooth = min(config smooth, n).
struct EnvelopeFold {
  /// An empty fold of window `smooth_length` (>= 1) into `envelope_row`.
  EnvelopeFold(std::size_t smooth_length, double* envelope_row);

  std::size_t smooth;     ///< moving-average length s
  std::size_t count = 0;  ///< samples folded so far
  double run = 0.0;       ///< sum of the last min(count, s) powers
  double sum = 0.0;       ///< sum of every folded power
  double* row;            ///< envelope centers; at least count entries
  MedianBracketCounter histogram;

  /// Folds x[count, n), where x[i] is sample i of the sequence (x[i - s] is
  /// read back for the leaving power). `row` must hold n entries.
  void fold(const double* x, std::size_t n);

  /// Writes the trailing smooth/2 zero centers of a fold of `count` samples
  /// (count >= smooth) and counts them: afterwards row[0, count) is the
  /// envelope and `histogram` has counted each of its values once.
  void close();
};

}  // namespace earsonar::dsp
