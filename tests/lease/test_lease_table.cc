/**
 * @file
 * Unit tests for LeaseTable and Lease value semantics.
 */

#include <gtest/gtest.h>

#include "lease/lease_table.h"

namespace leaseos::lease {
namespace {

TEST(LeaseTableTest, CreateAssignsUniqueIdsAndIndexes)
{
    LeaseTable table;
    Lease &a = table.create(ResourceType::Wakelock, 11, kFirstAppUid);
    Lease &b = table.create(ResourceType::Gps, 22, kFirstAppUid + 1);
    EXPECT_NE(a.id, b.id);
    EXPECT_EQ(table.size(), 2u);
    EXPECT_EQ(table.totalCreated(), 2u);
    EXPECT_EQ(table.find(a.id), &a);
    EXPECT_EQ(table.findByToken(22), &b);
    EXPECT_EQ(table.find(999), nullptr);
    EXPECT_EQ(table.findByToken(999), nullptr);
    EXPECT_TRUE(table.indexMatchesLeases());
}

TEST(LeaseTableTest, ReapRemovesBothIndexes)
{
    LeaseTable table;
    Lease &a = table.create(ResourceType::Wifi, 7, kFirstAppUid);
    LeaseId id = a.id;
    table.reap(id);
    EXPECT_EQ(table.size(), 0u);
    EXPECT_EQ(table.find(id), nullptr);
    EXPECT_EQ(table.findByToken(7), nullptr);
    table.reap(id); // double reap is safe
    EXPECT_TRUE(table.indexMatchesLeases());
}

TEST(LeaseTableTest, SecondLeaseForOneTokenBreaksTheIndex)
{
    LeaseTable table;
    table.create(ResourceType::Gps, 5, kFirstAppUid);
    ASSERT_TRUE(table.indexMatchesLeases());
    Lease &second = table.create(ResourceType::Gps, 5, kFirstAppUid);
    EXPECT_EQ(table.findByToken(5), &second);
    EXPECT_FALSE(table.indexMatchesLeases());
}

TEST(LeaseTableTest, CountInStateAndAll)
{
    LeaseTable table;
    Lease &a = table.create(ResourceType::Wakelock, 1, kFirstAppUid);
    Lease &b = table.create(ResourceType::Wakelock, 2, kFirstAppUid);
    table.create(ResourceType::Wakelock, 3, kFirstAppUid);
    a.state = LeaseState::Deferred;
    b.state = LeaseState::Inactive;
    EXPECT_EQ(table.countInState(LeaseState::Active), 1u);
    EXPECT_EQ(table.countInState(LeaseState::Deferred), 1u);
    EXPECT_EQ(table.countInState(LeaseState::Inactive), 1u);
    EXPECT_EQ(table.all().size(), 3u);
}

TEST(LeaseTest, HistoryBoundedAndLastBehavior)
{
    Lease lease;
    EXPECT_EQ(lease.lastBehavior, BehaviorType::Normal);
    EXPECT_EQ(lease.behaviorRun, 0);

    // Alternating classes never build a run past the newest term.
    for (int i = 0; i < 20; ++i) {
        lease.recordTerm(i % 2 == 0 ? BehaviorType::LongHolding
                                    : BehaviorType::Normal);
        EXPECT_EQ(lease.behaviorRun, 1) << "term " << i;
    }
    EXPECT_EQ(lease.lastBehavior, BehaviorType::Normal); // i=19 odd

    // Repeats of one class count up without bound.
    for (int run = 2; run <= 20; ++run) {
        lease.recordTerm(BehaviorType::Normal);
        EXPECT_EQ(lease.behaviorRun, run);
    }

    // A class change starts a new run of one.
    lease.recordTerm(BehaviorType::FrequentAsk);
    EXPECT_EQ(lease.lastBehavior, BehaviorType::FrequentAsk);
    EXPECT_EQ(lease.behaviorRun, 1);
    lease.recordTerm(BehaviorType::FrequentAsk);
    EXPECT_EQ(lease.behaviorRun, 2);
    lease.recordTerm(BehaviorType::LowUtility);
    EXPECT_EQ(lease.lastBehavior, BehaviorType::LowUtility);
    EXPECT_EQ(lease.behaviorRun, 1);
}

TEST(LeaseTest, StateNames)
{
    EXPECT_STREQ(leaseStateName(LeaseState::Active), "ACTIVE");
    EXPECT_STREQ(leaseStateName(LeaseState::Inactive), "INACTIVE");
    EXPECT_STREQ(leaseStateName(LeaseState::Deferred), "DEFERRED");
    EXPECT_STREQ(leaseStateName(LeaseState::Dead), "DEAD");
}

TEST(BehaviorTest, NamesAndMisbehaviorPredicate)
{
    EXPECT_STREQ(behaviorName(BehaviorType::FrequentAsk), "FAB");
    EXPECT_STREQ(behaviorName(BehaviorType::LongHolding), "LHB");
    EXPECT_STREQ(behaviorName(BehaviorType::LowUtility), "LUB");
    EXPECT_STREQ(behaviorName(BehaviorType::ExcessiveUse), "EUB");
    EXPECT_TRUE(isMisbehavior(BehaviorType::FrequentAsk));
    EXPECT_TRUE(isMisbehavior(BehaviorType::LongHolding));
    EXPECT_TRUE(isMisbehavior(BehaviorType::LowUtility));
    EXPECT_FALSE(isMisbehavior(BehaviorType::ExcessiveUse));
    EXPECT_FALSE(isMisbehavior(BehaviorType::Normal));
}

TEST(ResourceTypeTest, Names)
{
    EXPECT_STREQ(resourceTypeName(ResourceType::Wakelock), "wakelock");
    EXPECT_STREQ(resourceTypeName(ResourceType::Screen), "screen");
    EXPECT_STREQ(resourceTypeName(ResourceType::Gps), "gps");
    EXPECT_STREQ(resourceTypeName(ResourceType::Sensor), "sensor");
    EXPECT_STREQ(resourceTypeName(ResourceType::Wifi), "wifi");
    EXPECT_STREQ(resourceTypeName(ResourceType::Audio), "audio");
    EXPECT_STREQ(resourceTypeName(ResourceType::Bluetooth), "bluetooth");
}

TEST(LeaseStatTest, DerivedRatios)
{
    LeaseStat s;
    s.termStart = sim::Time::zero();
    s.termEnd = sim::Time::fromSeconds(10.0);
    s.holdingSeconds = 5.0;
    s.usageSeconds = 1.0;
    s.requestSeconds = 4.0;
    s.failedRequestSeconds = 3.0;
    EXPECT_DOUBLE_EQ(s.termSeconds(), 10.0);
    EXPECT_DOUBLE_EQ(s.holdingRatio(), 0.5);
    EXPECT_DOUBLE_EQ(s.utilizationRatio(), 0.2);
    EXPECT_DOUBLE_EQ(s.requestSuccessRatio(), 0.25);

    LeaseStat empty;
    EXPECT_DOUBLE_EQ(empty.holdingRatio(), 0.0);
    EXPECT_DOUBLE_EQ(empty.utilizationRatio(), 0.0);
    EXPECT_DOUBLE_EQ(empty.requestSuccessRatio(), 1.0);
}

} // namespace
} // namespace leaseos::lease
