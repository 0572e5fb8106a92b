/**
 * @file
 * Unit tests for Accumulator and RandomSource.
 */

#include <gtest/gtest.h>

#include "sim/random.h"
#include "sim/stats.h"

namespace leaseos::sim {
namespace {

TEST(AccumulatorTest, EmptyIsZero)
{
    Accumulator a;
    EXPECT_EQ(a.count(), 0u);
    EXPECT_DOUBLE_EQ(a.mean(), 0.0);
    EXPECT_DOUBLE_EQ(a.stddev(), 0.0);
}

TEST(AccumulatorTest, MomentsMatchClosedForm)
{
    Accumulator a;
    for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) a.record(v);
    EXPECT_EQ(a.count(), 8u);
    EXPECT_DOUBLE_EQ(a.mean(), 5.0);
    EXPECT_DOUBLE_EQ(a.min(), 2.0);
    EXPECT_DOUBLE_EQ(a.max(), 9.0);
    EXPECT_DOUBLE_EQ(a.sum(), 40.0);
    EXPECT_NEAR(a.variance(), 32.0 / 7.0, 1e-12); // sample variance
}

TEST(AccumulatorTest, SingleSampleVarianceZero)
{
    Accumulator a;
    a.record(42.0);
    EXPECT_DOUBLE_EQ(a.variance(), 0.0);
    EXPECT_DOUBLE_EQ(a.mean(), 42.0);
}

TEST(RandomTest, DeterministicForSameSeed)
{
    RandomSource a(7);
    RandomSource b(7);
    for (int i = 0; i < 100; ++i)
        EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
}

TEST(RandomTest, DifferentSeedsDiffer)
{
    RandomSource a(1);
    RandomSource b(2);
    bool any_diff = false;
    for (int i = 0; i < 10; ++i)
        if (a.uniform() != b.uniform()) any_diff = true;
    EXPECT_TRUE(any_diff);
}

TEST(RandomTest, UniformIntInRange)
{
    RandomSource r(3);
    for (int i = 0; i < 1000; ++i) {
        auto v = r.uniformInt(5, 9);
        EXPECT_GE(v, 5);
        EXPECT_LE(v, 9);
    }
}

TEST(RandomTest, ChanceRespectsProbabilityRoughly)
{
    RandomSource r(11);
    int hits = 0;
    for (int i = 0; i < 10000; ++i)
        if (r.chance(0.25)) ++hits;
    EXPECT_NEAR(hits / 10000.0, 0.25, 0.03);
}

TEST(RandomTest, UniformTimeInRange)
{
    RandomSource r(13);
    for (int i = 0; i < 100; ++i) {
        Time t = r.uniformTime(1_s, 2_s);
        EXPECT_GE(t, 1_s);
        EXPECT_LT(t, 2_s);
    }
}

} // namespace
} // namespace leaseos::sim
