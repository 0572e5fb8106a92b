/**
 * @file
 * Tests that the lease manager publishes each decision: the term observer
 * receives the verdict, and the lease's state shows the deferral and the
 * restore.
 */

#include "lease_fixture.h"

#include <vector>

namespace leaseos::lease {
namespace {

using sim::operator""_s;

struct DecisionLogTest : testing::LeaseFixture {
};

TEST_F(DecisionLogTest, TracesClassificationAndDeferral)
{
    std::vector<BehaviorType> verdicts;
    mgr.setTermObserver([&](const Lease &, const TermRecord &record) {
        verdicts.push_back(record.behavior);
    });
    auto &pms = server.powerManager();
    os::TokenId t = pms.newWakeLock(kApp, os::WakeLockType::Partial, "x");
    pms.acquire(t);
    const LeaseId id = mgr.leaseIdForToken(t);
    const sim::Time term = mgr.policy().initialTerm;

    // The idle holder's first term is Long-Holding, and the lease defers.
    sim.runFor(term + 1_s);
    ASSERT_EQ(verdicts.size(), 1u);
    EXPECT_EQ(verdicts[0], BehaviorType::LongHolding);
    EXPECT_EQ(mgr.lease(id)->state, LeaseState::Deferred);

    // After τ the lock is still held: the lease is restored to ACTIVE.
    sim.runFor(mgr.policy().deferralFor(1));
    EXPECT_EQ(verdicts.size(), 1u);
    EXPECT_EQ(mgr.lease(id)->state, LeaseState::Active);
}

} // namespace
} // namespace leaseos::lease
