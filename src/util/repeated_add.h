// repeated_add.h — exact closed form of a counted floating-point fold.
//
// The uniform-cohort fluid path stores one representative per cohort of
// identical senders, yet its aggregate window must carry the bits of the
// per-sender left fold `for (k < count) acc += x;` — float addition is not
// associative, so `acc + count * x` differs. `repeated_add` returns those
// bits in O(binades crossed) instead of O(count):
//
//   Take a positive normal `acc` in the binade [2^(e-1), 2^e), whose doubles
//   are spaced u = 2^(e-53) apart. While the sum stays in the binade,
//   fl(acc + x) = acc + d with d = x rounded to a multiple of u; d depends on
//   `acc` only through the parity of acc/u, and only when x is an exact
//   half-multiple of u (ties-to-even). One add inside the binade leaves acc
//   with the parity that keeps d constant for every later add there, so the
//   next add measures d exactly (both values lie on the binade's grid) and
//   the rest of the binade is one integer jump of k·d/u in the significand.
//
// Everything else — NaN, infinities, negative or sub-DBL_MIN operands — runs
// the plain loop, so the result is bit-identical for every input.
//
// Precondition: the default floating-point environment (round-to-nearest-
// even). The plain loop and the closed form both assume it; nothing in this
// library changes the rounding mode.
#pragma once

#include <cfloat>
#include <limits>

namespace axiomcc {

static_assert(std::numeric_limits<double>::is_iec559,
              "repeated_add assumes IEEE 754 binary64 doubles");
static_assert(FLT_EVAL_METHOD == 0,
              "repeated_add assumes each double add is rounded to double");

namespace detail {
/// The count >= 2 path; out of line so callers inline only the one-add case.
[[gnu::noinline]] double repeated_add_jump(double acc, double x, long count);
}  // namespace detail

/// Bit-identical to `for (long k = 0; k < count; ++k) acc += x; return acc;`
/// (count <= 0 adds nothing) under round-to-nearest-even.
inline double repeated_add(double acc, double x, long count) {
  if (count <= 1) return count == 1 ? acc + x : acc;
  return detail::repeated_add_jump(acc, x, count);
}

}  // namespace axiomcc
