// Floating-point comparison helpers.
//
// The project lint (tools/lint2) bans raw `==`/`!=` on floating-point
// values: exact equality is almost always a latent bug once a value has been
// through arithmetic.  Code that genuinely needs to compare floats goes
// through these helpers, which make the tolerance explicit.

#pragma once

#include <algorithm>
#include <cmath>

namespace eant {

/// True iff a and b agree within `abs_tol` absolutely or `rel_tol`
/// relative to the larger magnitude — the standard combined tolerance that
/// behaves sanely both near zero and at large magnitudes.
inline bool approx_equal(double a, double b, double rel_tol = 1e-9,
                         double abs_tol = 1e-12) {
  const double diff = std::abs(a - b);
  if (diff <= abs_tol) return true;
  return diff <= rel_tol * std::max(std::abs(a), std::abs(b));
}

/// True iff x is within `abs_tol` of zero.
inline bool near_zero(double x, double abs_tol = 1e-12) {
  return std::abs(x) <= abs_tol;
}

}  // namespace eant
