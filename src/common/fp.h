// Floating-point comparison helpers.
//
// The project lint (tools/lint2) bans raw `==`/`!=` on floating-point
// values: exact equality is almost always a latent bug once a value has been
// through arithmetic.  Code that genuinely needs to compare floats goes
// through these helpers, which make the tolerance explicit.

#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>

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

/// x after `k` sequential `x += inc`, bit for bit, for finite x, inc >= 0
/// (round to nearest, ties to even), without making most of the additions.
///
/// Inside one binade every addition rounds x + inc to a multiple of that
/// binade's ulp.  The step it takes does not depend on x unless inc is an
/// odd multiple of half an ulp, a tie; then the first addition rounds to an
/// even mantissa, and from an even mantissa the step is the even one of
/// the two candidates, so it stays even and the step stays put.  So after
/// two additions inside one binade the second one's step repeats until the
/// binade ends, and that stretch is one integer multiply-add on the bit
/// pattern.  Fewer than four additions, binade edges and a zero or
/// subnormal x take the plain loop.
inline double add_repeatedly(double x, double inc, std::size_t k) {
  constexpr std::uint64_t kMantissa = (std::uint64_t{1} << 52) - 1;
  while (k >= 4) {
    const double x1 = x + inc;
    const double x2 = x1 + inc;
    const auto b0 = std::bit_cast<std::uint64_t>(x);
    const auto b1 = std::bit_cast<std::uint64_t>(x1);
    const auto b2 = std::bit_cast<std::uint64_t>(x2);
    x = x2;
    k -= 2;
    // The sign and exponent fields.  x only grows, so equal fields at both
    // ends hold x1 too; 0 (zero, subnormal) and 0x7ff up (infinite, NaN,
    // negative) fall outside the closed form.
    const std::uint64_t binade = b0 >> 52;
    if (binade != b2 >> 52 || binade - 1 >= 0x7fe) continue;
    const std::uint64_t step = b2 - b1;
    if (step == 0) return x;  // inc rounds away and always will
    // Steps that keep x inside the binade.  step < 2^52, so below 2^11
    // steps the product cannot overflow.
    const std::uint64_t room = (b2 | kMantissa) - b2;
    std::uint64_t n = k;
    if (n >= 2048 || n * step > room) n = std::min(n, room / step);
    x = std::bit_cast<double>(b2 + n * step);
    k -= n;
  }
  for (; k > 0; --k) x += inc;
  return x;
}

}  // namespace eant
