/**
 * @file
 * Behaviour classifier tests, including parameterised threshold sweeps.
 */

#include <gtest/gtest.h>

#include "lease/behavior_classifier.h"

namespace leaseos::lease {
namespace {

using sim::operator""_s;

LeaseStat
baseStat(double term_s = 5.0)
{
    LeaseStat s;
    s.termStart = sim::Time::zero();
    s.termEnd = sim::Time::fromSeconds(term_s);
    return s;
}

TEST(ClassifierTest, IdleTermIsNormal)
{
    EXPECT_EQ(classify(ResourceType::Wakelock, baseStat()),
              BehaviorType::Normal);
}

TEST(ClassifierTest, LongHoldingOnUltralowUtilization)
{
    LeaseStat s = baseStat();
    s.holdingSeconds = 5.0;
    s.usageSeconds = 0.01; // 0.2 % utilisation
    s.utilityScore = 60.0;
    EXPECT_EQ(classify(ResourceType::Wakelock, s), BehaviorType::LongHolding);
}

TEST(ClassifierTest, LowUtilityOnBusyUselessWork)
{
    LeaseStat s = baseStat();
    s.holdingSeconds = 5.0;
    s.usageSeconds = 5.5; // >100 %, like Fig. 4
    s.utilityScore = 5.0;
    EXPECT_EQ(classify(ResourceType::Wakelock, s), BehaviorType::LowUtility);
}

TEST(ClassifierTest, ExcessiveUseOnHeavyUsefulWork)
{
    LeaseStat s = baseStat();
    s.holdingSeconds = 5.0;
    s.usageSeconds = 4.0;
    s.utilityScore = 90.0;
    EXPECT_EQ(classify(ResourceType::Wakelock, s), BehaviorType::ExcessiveUse);
}

TEST(ClassifierTest, ModerateUsefulWorkIsNormal)
{
    LeaseStat s = baseStat();
    s.holdingSeconds = 5.0;
    s.usageSeconds = 1.0;
    s.utilityScore = 70.0;
    EXPECT_EQ(classify(ResourceType::Wakelock, s), BehaviorType::Normal);
}

TEST(ClassifierTest, FrequentAskForGpsOnly)
{
    LeaseStat s = baseStat();
    s.requestSeconds = 3.0;        // 60 % of the term requesting
    s.failedRequestSeconds = 3.0;  // none of it succeeded
    EXPECT_EQ(classify(ResourceType::Gps, s), BehaviorType::FrequentAsk);
    // The same stat on a wakelock cannot be FAB (Table 1).
    EXPECT_EQ(classify(ResourceType::Wakelock, s), BehaviorType::Normal);
}

TEST(ClassifierTest, GpsWithGoodFixesNotFab)
{
    LeaseStat s = baseStat();
    s.requestSeconds = 5.0;
    s.failedRequestSeconds = 0.2;
    s.holdingSeconds = 5.0;
    s.usageSeconds = 5.0;
    s.utilityScore = 80.0;
    EXPECT_NE(classify(ResourceType::Gps, s), BehaviorType::FrequentAsk);
}

TEST(ClassifierTest, ShortHoldIsNormalEvenIfIdle)
{
    LeaseStat s = baseStat();
    s.holdingSeconds = 1.0; // 20 % of term — below the 50 % holding cut-off
    s.usageSeconds = 0.0;
    s.utilityScore = 50.0;
    EXPECT_EQ(classify(ResourceType::Wakelock, s), BehaviorType::Normal);
}

TEST(ClassifierTest, ZeroLengthTermIsNormal)
{
    LeaseStat s;
    EXPECT_EQ(classify(ResourceType::Wakelock, s), BehaviorType::Normal);
}

// ---- Parameterised sweep: utilisation boundary --------------------------

struct UtilizationCase {
    double utilization;
    BehaviorType expected;
};

class UtilizationSweep : public ::testing::TestWithParam<UtilizationCase>
{
};

TEST_P(UtilizationSweep, BoundaryAtLhbThreshold)
{
    LeaseStat s = baseStat();
    s.holdingSeconds = 5.0;
    s.usageSeconds = GetParam().utilization * s.holdingSeconds;
    s.utilityScore = 60.0;
    EXPECT_EQ(classify(ResourceType::Wakelock, s), GetParam().expected);
}

INSTANTIATE_TEST_SUITE_P(
    Boundaries, UtilizationSweep,
    ::testing::Values(UtilizationCase{0.0, BehaviorType::LongHolding},
                      UtilizationCase{0.01, BehaviorType::LongHolding},
                      UtilizationCase{0.049, BehaviorType::LongHolding},
                      UtilizationCase{0.06, BehaviorType::Normal},
                      UtilizationCase{0.2, BehaviorType::Normal}));

// ---- Parameterised sweep: utility boundary --------------------------------

struct UtilityCase {
    double score;
    BehaviorType expected;
};

class UtilitySweep : public ::testing::TestWithParam<UtilityCase>
{
};

TEST_P(UtilitySweep, BoundaryAtLubThreshold)
{
    LeaseStat s = baseStat();
    s.holdingSeconds = 5.0;
    s.usageSeconds = 1.0;
    s.utilityScore = GetParam().score;
    EXPECT_EQ(classify(ResourceType::Wakelock, s), GetParam().expected);
}

INSTANTIATE_TEST_SUITE_P(
    Boundaries, UtilitySweep,
    ::testing::Values(UtilityCase{0.0, BehaviorType::LowUtility},
                      UtilityCase{19.9, BehaviorType::LowUtility},
                      UtilityCase{20.0, BehaviorType::Normal},
                      UtilityCase{100.0, BehaviorType::Normal}));

// ---- Parameterised sweep: GPS success ratio ---------------------------------

struct FabCase {
    double failed_fraction;
    bool expect_fab;
};

class FabSweep : public ::testing::TestWithParam<FabCase>
{
};

TEST_P(FabSweep, BoundaryAtSuccessRatio)
{
    LeaseStat s = baseStat();
    s.requestSeconds = 4.0;
    s.failedRequestSeconds = GetParam().failed_fraction * s.requestSeconds;
    BehaviorType got = classify(ResourceType::Gps, s);
    EXPECT_EQ(got == BehaviorType::FrequentAsk, GetParam().expect_fab);
}

INSTANTIATE_TEST_SUITE_P(
    Boundaries, FabSweep,
    ::testing::Values(FabCase{1.0, true}, FabCase{0.9, true},
                      FabCase{0.8, true}, FabCase{0.5, false},
                      FabCase{0.0, false}));

} // namespace
} // namespace leaseos::lease
