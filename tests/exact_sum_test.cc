#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <vector>

#include "common/exact_sum.h"

namespace oltap {
namespace {

double Sum(const std::vector<double>& xs) {
  ExactSum s;
  for (double x : xs) s.Add(x);
  return s.Result();
}

uint64_t Bits(double d) {
  uint64_t b;
  std::memcpy(&b, &d, sizeof(b));
  return b;
}

constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(ExactSumTest, EmptyIsPositiveZero) {
  EXPECT_EQ(Bits(Sum({})), Bits(0.0));
}

TEST(ExactSumTest, CancellationIsExact) {
  // A naive left fold loses the 1 entirely.
  EXPECT_EQ(Sum({1e16, 1.0, -1e16}), 1.0);
  EXPECT_EQ(Sum({1e100, 1.0, -1e100, 1e-100}), 1.0 + 1e-100);
  EXPECT_EQ(Sum({0.1, 0.2, -0.3}), 2.7755575615628914e-17);
}

TEST(ExactSumTest, CorrectlyRounded) {
  // 0.1 ten times is exactly 1.0000000000000000555..., which rounds to 1.
  EXPECT_EQ(Sum(std::vector<double>(10, 0.1)), 1.0);
  // Half-way case decided by a partial below the tie.
  EXPECT_EQ(Sum({1e-16, 1.0, 1e16}), 10000000000000002.0);
}

TEST(ExactSumTest, OrderIndependentOverShuffles) {
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> amount(0.01, 9999.99);
  std::uniform_int_distribution<int> exp(-30, 30);
  std::vector<double> xs;
  for (int i = 0; i < 20000; ++i) {
    double v = std::round(amount(rng) * 100) / 100;
    if (i % 3 == 0) v = std::ldexp(v, exp(rng));
    if (i % 5 == 0) v = -v;
    xs.push_back(v);
  }
  const uint64_t want = Bits(Sum(xs));
  for (int round = 0; round < 5; ++round) {
    std::shuffle(xs.begin(), xs.end(), rng);
    EXPECT_EQ(Bits(Sum(xs)), want) << "shuffle " << round;
  }
  // Any split into accumulators merged in any order gives the same bits.
  for (size_t parts : {2, 3, 7, 64}) {
    std::vector<ExactSum> acc(parts);
    for (size_t i = 0; i < xs.size(); ++i) acc[i % parts].Add(xs[i]);
    ExactSum merged;
    for (size_t p = parts; p-- > 0;) merged.Merge(acc[p]);
    EXPECT_EQ(Bits(merged.Result()), want) << parts << " parts";
  }
}

TEST(ExactSumTest, WideExponentRangeSpillsAndStaysExact) {
  // Values spread over the whole exponent range need many partials.
  std::vector<double> xs;
  for (int e = -1000; e <= 1000; e += 37) xs.push_back(std::ldexp(1.0, e));
  std::vector<double> neg;
  for (double x : xs) neg.push_back(-x);
  std::vector<double> all = xs;
  all.insert(all.end(), neg.begin(), neg.end());
  all.push_back(3.5);
  EXPECT_EQ(Sum(all), 3.5);
  std::reverse(all.begin(), all.end());
  EXPECT_EQ(Sum(all), 3.5);
}

TEST(ExactSumTest, NegativeZero) {
  EXPECT_EQ(Bits(Sum({-0.0})), Bits(-0.0));
  EXPECT_EQ(Bits(Sum({-0.0, -0.0})), Bits(-0.0));
  EXPECT_EQ(Bits(Sum({-0.0, 0.0})), Bits(0.0));
  // An exact zero total is +0, as x + (-x) is in IEEE round-to-nearest.
  EXPECT_EQ(Bits(Sum({-0.0, 1.5, -1.5})), Bits(0.0));
}

TEST(ExactSumTest, Subnormals) {
  const double tiny = std::numeric_limits<double>::denorm_min();
  EXPECT_EQ(Sum({tiny, tiny, tiny}), 3 * tiny);
  EXPECT_EQ(Sum({1.0, tiny, -1.0}), tiny);
  const double sub = std::numeric_limits<double>::min() / 4;
  EXPECT_EQ(Sum({sub, -tiny, sub}), 2 * sub - tiny);
}

TEST(ExactSumTest, InfinityAndNaNKeepIeeeResults) {
  EXPECT_EQ(Sum({1.0, kInf, -5.0}), kInf);
  EXPECT_EQ(Sum({-kInf, 1e308, 1e308}), -kInf);
  EXPECT_TRUE(std::isnan(Sum({kInf, -kInf})));
  EXPECT_TRUE(std::isnan(Sum({1.0, std::nan(""), 2.0})));
  EXPECT_TRUE(std::isnan(Sum({std::nan(""), kInf})));
}

TEST(ExactSumTest, OverflowingTotalIsInfinite) {
  EXPECT_EQ(Sum({1e308, 1e308}), kInf);
  EXPECT_EQ(Sum({-1e308, -1e308, -1e308}), -kInf);
  EXPECT_EQ(Sum(std::vector<double>(100, 1.7e308)), kInf);
}

TEST(ExactSumTest, IntermediateOverflowIsOrderIndependent) {
  // The running sum leaves the double range, the total does not.
  const double big = std::numeric_limits<double>::max();
  EXPECT_EQ(Sum({big, big, -big}), big);
  EXPECT_EQ(Sum({big, -big, big}), big);
  EXPECT_EQ(Sum({-big, big, big}), big);
  EXPECT_EQ(Sum({1e308, 1e308, -1e308, -1e308, 5.0}), 5.0);
  ExactSum a, b;
  a.Add(big);
  a.Add(big);
  b.Add(-big);
  b.Add(-big);
  b.Add(2.0);
  a.Merge(b);
  EXPECT_EQ(a.Result(), 2.0);
}

}  // namespace
}  // namespace oltap
