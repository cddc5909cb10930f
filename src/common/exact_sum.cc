#include "common/exact_sum.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

namespace oltap {

namespace {

constexpr double kTwo1023 = 0x1p1023;

}  // namespace

void ExactSum::Add(double x) {
  if (x == 0 && std::signbit(x)) {
    neg_zero_ = true;
    return;
  }
  other_ = true;
  if (!std::isfinite(x)) {
    special_ += x;
    return;
  }
  if (x != 0) AddFinite(x, /*carry=*/true);
}

void ExactSum::Merge(const ExactSum& other) {
  special_ += other.special_;
  big_ += other.big_;
  neg_zero_ |= other.neg_zero_;
  other_ |= other.other_;
  const double* p = other.partials();
  for (uint32_t k = 0; k < other.n_; ++k) AddFinite(p[k], /*carry=*/true);
}

double* ExactSum::Room(uint32_t need) {
  if (spill_.empty()) {
    if (need <= kInline) return inline_;
    spill_.assign(inline_, inline_ + n_);
  }
  if (spill_.size() < need) {
    spill_.resize(std::max<size_t>(need, 2 * spill_.size()));
  }
  return spill_.data();
}

bool ExactSum::AddFinite(double x, bool carry) {
  // Grow-expansion: add x into the partials smallest-first with error-free
  // two-sums, keeping every non-zero rounding error as a partial.
  double* p = Room(n_ + 1);
  uint32_t i = 0;
  for (uint32_t j = 0; j < n_; ++j) {
    double y = p[j];
    if (std::fabs(x) < std::fabs(y)) std::swap(x, y);
    double hi = x + y;
    while (std::isinf(hi)) {
      // x + y left the double range, so 2^1022 <= |x| < 2^1024 and
      // x - ±2^1023 is exact (Sterbenz). Carry that unit out.
      if (!carry) return false;
      double unit = std::copysign(kTwo1023, x);
      big_ += x > 0 ? 1 : -1;
      x -= unit;
      if (std::fabs(x) < std::fabs(y)) std::swap(x, y);
      hi = x + y;
    }
    double lo = y - (hi - x);
    if (lo != 0) p[i++] = lo;
    x = hi;
  }
  n_ = i;
  if (x != 0) p[n_++] = x;
  return true;
}

double ExactSum::Result() const {
  if (special_ != 0) return special_;  // ±Inf or NaN (NaN != 0 too)
  if (big_ != 0) {
    // The partials sum to less than 2^1024 in magnitude, so more than four
    // carried units of 2^1023 cannot be cancelled back into range.
    if (big_ > 4 || big_ < -4) {
      return std::copysign(std::numeric_limits<double>::infinity(),
                           static_cast<double>(big_));
    }
    // Fold the carried units back in; if that overflows again the total
    // is beyond the double range (up to a half-ulp band at the boundary).
    ExactSum t = *this;
    t.big_ = 0;
    double unit = big_ > 0 ? kTwo1023 : -kTwo1023;
    for (int64_t k = big_ > 0 ? big_ : -big_; k > 0; --k) {
      if (!t.AddFinite(unit, /*carry=*/false)) {
        return std::copysign(std::numeric_limits<double>::infinity(), unit);
      }
    }
    return t.Result();
  }
  uint32_t n = n_;
  const double* p = partials();
  if (n == 0) return neg_zero_ && !other_ ? -0.0 : 0.0;
  // Sum from the top down until the first inexact step; the partials are
  // non-overlapping, so that step decides the rounding.
  double hi = p[--n];
  double lo = 0;
  while (n > 0) {
    double x = hi;
    double y = p[--n];
    hi = x + y;
    lo = y - (hi - x);
    if (lo != 0) break;
  }
  // Half-way case: round-half-even on hi alone would ignore the sign of
  // the partials below lo, which break the tie.
  if (n > 0 && ((lo < 0 && p[n - 1] < 0) || (lo > 0 && p[n - 1] > 0))) {
    double y = lo * 2;
    double x = hi + y;
    if (y == x - hi) hi = x;
  }
  return hi;
}

}  // namespace oltap
