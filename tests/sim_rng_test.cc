#include "src/sim/rng.h"

#include <gtest/gtest.h>

#include <vector>

#include "src/sim/check.h"

namespace rlsim {
namespace {

TEST(RngTest, DeterministicFromSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) {
      ++same;
    }
  }
  EXPECT_LT(same, 3);
}

TEST(RngTest, NextBelowInRange) {
  Rng rng(7);
  for (int i = 0; i < 10'000; ++i) {
    EXPECT_LT(rng.NextBelow(17), 17u);
  }
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10'000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, UniformIntInclusiveBounds) {
  Rng rng(9);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 10'000; ++i) {
    const int64_t v = rng.UniformInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, UniformIntRejectsInvertedRange) {
  Rng rng(9);
  EXPECT_THROW(rng.UniformInt(3, -3), CheckFailure);
}

TEST(RngTest, ExponentialMeanApprox) {
  Rng rng(11);
  const double mean = 4.0;
  double sum = 0;
  const int n = 200'000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.Exponential(mean);
    EXPECT_GE(v, 0.0);
    sum += v;
  }
  EXPECT_NEAR(sum / n, mean, 0.1);
}

TEST(RngTest, ChanceExtremes) {
  Rng rng(17);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_FALSE(rng.Chance(0.0));
    EXPECT_TRUE(rng.Chance(1.0));
  }
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng parent(21);
  Rng child = parent.Fork();
  // The child stream should not simply mirror the parent stream.
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (parent.Next() == child.Next()) {
      ++same;
    }
  }
  EXPECT_LT(same, 3);
}

TEST(ZipfianTest, InRangeAndSkewed) {
  Rng rng(31);
  ZipfianGenerator zipf(1000, 0.99);
  std::vector<int> counts(1000, 0);
  const int n = 100'000;
  for (int i = 0; i < n; ++i) {
    const uint64_t v = zipf.Next(rng);
    ASSERT_LT(v, 1000u);
    ++counts[v];
  }
  // Rank 0 should be far hotter than the median rank.
  EXPECT_GT(counts[0], 20 * std::max(counts[500], 1));
}

TEST(ZipfianTest, LowThetaIsFlatter) {
  Rng rng(33);
  ZipfianGenerator mild(1000, 0.2);
  std::vector<int> counts(1000, 0);
  for (int i = 0; i < 100'000; ++i) {
    ++counts[mild.Next(rng)];
  }
  int tail = 0;
  for (int i = 500; i < 1000; ++i) {
    tail += counts[i];
  }
  // With theta=0.2 the cold half still receives a sizeable share.
  EXPECT_GT(tail, 20'000);
}

TEST(DiscreteDistributionTest, RespectsWeights) {
  Rng rng(41);
  DiscreteDistribution dist({0.45, 0.43, 0.04, 0.04, 0.04});
  std::vector<int> counts(5, 0);
  const int n = 100'000;
  for (int i = 0; i < n; ++i) {
    ++counts[dist.Next(rng)];
  }
  EXPECT_NEAR(counts[0] / static_cast<double>(n), 0.45, 0.01);
  EXPECT_NEAR(counts[1] / static_cast<double>(n), 0.43, 0.01);
  EXPECT_NEAR(counts[2] / static_cast<double>(n), 0.04, 0.01);
}

TEST(DiscreteDistributionTest, SingleBucket) {
  Rng rng(43);
  DiscreteDistribution dist({1.0});
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(dist.Next(rng), 0u);
  }
}

TEST(DiscreteDistributionTest, RejectsAllZeroWeights) {
  EXPECT_THROW(DiscreteDistribution({0.0, 0.0}), CheckFailure);
}

}  // namespace
}  // namespace rlsim
