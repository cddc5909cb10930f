#ifndef OLTAP_COMMON_EXACT_SUM_H_
#define OLTAP_COMMON_EXACT_SUM_H_

#include <cstdint>
#include <vector>

namespace oltap {

// Exact floating-point summation (Shewchuk's non-overlapping partials, the
// algorithm behind Python's math.fsum). The accumulator holds the exact
// sum of everything added; Result() rounds it once, to nearest-even. The
// result therefore depends only on the multiset of inputs, not on their
// order or on how the inputs were split across accumulators before
// Merge() — which is what lets SUM/AVG over DOUBLE pre-aggregate per
// morsel and merge in any grouping with bit-identical results.
//
// IEEE special values keep their IEEE meaning: any NaN input, or +Inf
// together with -Inf, yields NaN; otherwise an infinite input yields that
// infinity. A sum of only -0.0 inputs is -0.0. Finite totals beyond the
// double range round to ±Inf (intermediate overflow is carried exactly
// in multiples of 2^1023, so it is order-independent too).
//
// Partials live inline; the exact sums of ordinary data need two or
// three, so no allocation happens per value. Inputs spanning most of the
// exponent range spill to the heap once.
class ExactSum {
 public:
  void Add(double x);
  // Adds the exact value held by `other`.
  void Merge(const ExactSum& other);
  // The exact sum, correctly rounded to double.
  double Result() const;

 private:
  static constexpr uint32_t kInline = 4;

  // Pointer to room for at least `need` partials (spills once the inline
  // array is too small).
  double* Room(uint32_t need);
  const double* partials() const {
    return spill_.empty() ? inline_ : spill_.data();
  }
  // Folds x into the partials. With `carry` false, reports an overflow
  // instead of carrying it into big_ (used by Result's final fold).
  bool AddFinite(double x, bool carry);

  double inline_[kInline] = {};
  std::vector<double> spill_;
  uint32_t n_ = 0;
  // Multiples of 2^1023 carried out of the partials on overflow.
  int64_t big_ = 0;
  // Sum of the non-finite inputs (0 when there were none).
  double special_ = 0;
  // Whether a -0.0 input / any other input arrived (a sum of only -0.0
  // inputs is -0.0).
  bool neg_zero_ = false;
  bool other_ = false;
};

}  // namespace oltap

#endif  // OLTAP_COMMON_EXACT_SUM_H_
