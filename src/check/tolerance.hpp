// Tolerance policy for the differential-testing oracle (tests/oracle/).
//
// Every optimized numeric kernel in the library is paired with a deliberately
// naive reference implementation (src/check/reference.hpp). Each pair has one
// named entry in the policy table below stating exactly how far the optimized
// output may drift from the reference before the oracle calls it a bug.
//
// Acceptance rule for element i of a compared vector:
//
//   |got[i] - want[i]| <= abs + rel * max(|want[i]|, linf(want))
//
// The linf(want) term keeps near-zero elements of an otherwise large output
// (e.g. the stop-band bins of a transform) from demanding impossible relative
// accuracy — transform round-off scales with the norm of the whole output,
// not with each bin. Pairs documented as "bit-exact" use rel = abs = 0.
//
// The table is mirrored in docs/testing.md; scripts/check_docs.sh fails when
// a pair registered here is missing from the docs (and vice versa).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace earsonar::check {

/// How far an optimized result may drift from its reference.
struct Tolerance {
  double rel = 0.0;  ///< relative term, scaled by max(|want_i|, linf(want))
  double abs = 0.0;  ///< absolute floor
};

/// One optimized-vs-reference pair and its pinned tolerance.
struct PairPolicy {
  std::string name;       ///< stable id, e.g. "dsp.fft.forward"
  std::string optimized;  ///< the production entry point under test
  std::string reference;  ///< the naive oracle it is compared against
  Tolerance tol;
  std::string note;       ///< one-line rationale for the tolerance
};

/// The full pair catalog, in documentation order.
const std::vector<PairPolicy>& pair_policies();

/// Lookup by name; throws std::invalid_argument for an unknown pair.
const PairPolicy& pair_policy(std::string_view name);

/// Units-in-the-last-place distance between two finite doubles (large when
/// the signs differ; 0 when bit-identical). Exposed for tests and for pairs
/// whose policy is best expressed in ULPs.
std::uint64_t ulp_distance(double a, double b);

/// Worst element of a vector comparison under a tolerance.
struct CompareResult {
  bool ok = true;
  std::size_t index = 0;     ///< worst offending element
  double got = 0.0;
  double want = 0.0;
  double error = 0.0;        ///< |got - want| at that element
  double allowed = 0.0;      ///< the bound that element had to meet
};

/// Compares `got` against `want` element-wise under `tol` (sizes must match;
/// any non-finite element fails the comparison).
CompareResult compare_vectors(std::span<const double> got,
                              std::span<const double> want, const Tolerance& tol);

/// Human-readable one-line description of a failed comparison.
std::string describe_failure(std::string_view pair, const CompareResult& result);

}  // namespace earsonar::check
