#include "common/rng.h"

#include <gtest/gtest.h>

#include <set>

namespace mrca {
namespace {

TEST(SplitMix64, KnownSequenceIsDeterministic) {
  SplitMix64 a(42);
  SplitMix64 b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next(), b.next());
  }
}

TEST(SplitMix64, DifferentSeedsDiverge) {
  SplitMix64 a(1);
  SplitMix64 b(2);
  EXPECT_NE(a.next(), b.next());
}

TEST(Rng, DeterministicForEqualSeeds) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsProduceDifferentStreams) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++equal;
  }
  EXPECT_EQ(equal, 0);
}

TEST(Rng, NextBelowStaysInRange) {
  Rng rng(7);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL, 1ULL << 40}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.next_below(bound), bound);
    }
  }
}

TEST(Rng, NextBelowOneIsAlwaysZero) {
  Rng rng(9);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(rng.next_below(1), 0u);
  }
}

TEST(Rng, NextBelowCoversAllResidues) {
  Rng rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    seen.insert(rng.next_below(7));
  }
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng(13);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 5000; ++i) {
    const std::int64_t v = rng.uniform_int(-3, 3);
    ASSERT_GE(v, -3);
    ASSERT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformIntDegenerateRange) {
  Rng rng(17);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(rng.uniform_int(5, 5), 5);
  }
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(19);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.next_double();
    ASSERT_GE(x, 0.0);
    ASSERT_LT(x, 1.0);
  }
}

TEST(Rng, NextDoubleMeanNearHalf) {
  Rng rng(23);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.next_double();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, UniformRespectsBounds) {
  Rng rng(29);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(-2.5, 7.5);
    ASSERT_GE(x, -2.5);
    ASSERT_LT(x, 7.5);
  }
}

TEST(Rng, BernoulliEdgeCases) {
  Rng rng(31);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
    EXPECT_FALSE(rng.bernoulli(-0.5));
    EXPECT_TRUE(rng.bernoulli(1.5));
  }
}

TEST(Rng, BernoulliFrequencyMatchesP) {
  Rng rng(37);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (rng.bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, ExponentialMeanMatchesRate) {
  Rng rng(41);
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(2.0);
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, ExponentialIsNonNegative) {
  Rng rng(43);
  for (int i = 0; i < 10000; ++i) {
    ASSERT_GE(rng.exponential(1.0), 0.0);
  }
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng parent(67);
  Rng child = parent.split();
  // The child stream differs from the parent's continuation.
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (parent.next_u64() == child.next_u64()) ++equal;
  }
  EXPECT_LE(equal, 1);
}

TEST(Rng, SatisfiesUniformRandomBitGenerator) {
  static_assert(std::uniform_random_bit_generator<Rng>);
  EXPECT_EQ(Rng::min(), 0u);
  EXPECT_EQ(Rng::max(), ~0ULL);
}

}  // namespace
}  // namespace mrca
