/**
 * @file
 * Tests for the §8 usage-history extension: misbehaviour reputation
 * carried across kernel-object churn (LeasePolicy::rememberMisbehavior).
 */

#include "lease_fixture.h"

namespace leaseos::lease {
namespace {

using sim::operator""_s;
using testing::LeaseFixtureBase;

struct ReputationFixture : LeaseFixtureBase {
    static LeasePolicy
    policy(bool remember)
    {
        LeasePolicy p;
        p.rememberMisbehavior = remember;
        return p;
    }
};

TEST_F(ReputationFixture, ChurnedLeaseInheritsEscalation)
{
    LeaseOsRuntime leaseos(sim, cpu, radio, server, policy(true));
    auto &mgr = leaseos.manager();
    auto &pms = server.powerManager();

    // First object: misbehave through two deferrals, then destroy it.
    os::TokenId a = pms.newWakeLock(kApp, os::WakeLockType::Partial, "a");
    pms.acquire(a);
    sim.runFor(45_s); // defer (5s), restore (30s), defer again (35s)
    LeaseId lease_a = mgr.table().findByToken(a)->id;
    int misbehaved = mgr.lease(lease_a)->consecutiveMisbehaved;
    ASSERT_GE(misbehaved, 2);
    pms.destroy(a);

    // The app immediately creates a fresh lock: the new lease starts
    // with the inherited counter, not a clean slate.
    os::TokenId b = pms.newWakeLock(kApp, os::WakeLockType::Partial, "b");
    LeaseId lease_b = mgr.table().findByToken(b)->id;
    EXPECT_EQ(mgr.lease(lease_b)->consecutiveMisbehaved, misbehaved);
}

TEST_F(ReputationFixture, ReputationExpiresAfterWindow)
{
    LeaseOsRuntime leaseos(sim, cpu, radio, server, policy(true));
    auto &mgr = leaseos.manager();
    auto &pms = server.powerManager();

    os::TokenId a = pms.newWakeLock(kApp, os::WakeLockType::Partial, "a");
    pms.acquire(a);
    sim.runFor(10_s);
    pms.destroy(a);

    // A second before the 3 min window closes, a new object inherits;
    // two seconds later, the next one starts clean.
    sim.runFor(LeasePolicy::reputationWindow - 1_s);
    os::TokenId b = pms.newWakeLock(kApp, os::WakeLockType::Partial, "b");
    EXPECT_GT(mgr.table().findByToken(b)->consecutiveMisbehaved, 0);
    sim.runFor(2_s);
    os::TokenId c = pms.newWakeLock(kApp, os::WakeLockType::Partial, "c");
    EXPECT_EQ(mgr.table().findByToken(c)->consecutiveMisbehaved, 0);
}

TEST_F(ReputationFixture, DisabledByDefault)
{
    LeaseOsRuntime leaseos(sim, cpu, radio, server, policy(false));
    auto &mgr = leaseos.manager();
    auto &pms = server.powerManager();

    os::TokenId a = pms.newWakeLock(kApp, os::WakeLockType::Partial, "a");
    pms.acquire(a);
    sim.runFor(45_s);
    pms.destroy(a);
    os::TokenId b = pms.newWakeLock(kApp, os::WakeLockType::Partial, "b");
    EXPECT_EQ(mgr.table().findByToken(b)->consecutiveMisbehaved,
              0);
}

TEST_F(ReputationFixture, CleanLeasesLeaveNoReputation)
{
    LeaseOsRuntime leaseos(sim, cpu, radio, server, policy(true));
    auto &mgr = leaseos.manager();
    auto &pms = server.powerManager();

    // Short, healthy use: acquire, work, release, destroy.
    os::TokenId a = pms.newWakeLock(kApp, os::WakeLockType::Partial, "a");
    pms.acquire(a);
    cpu.runWorkFor(kApp, 1.0, 2_s);
    sim.runFor(3_s);
    pms.release(a);
    pms.destroy(a);

    os::TokenId b = pms.newWakeLock(kApp, os::WakeLockType::Partial, "b");
    EXPECT_EQ(mgr.table().findByToken(b)->consecutiveMisbehaved,
              0);
}

TEST_F(ReputationFixture, RepeatOffenderDefersWithoutReconfirmation)
{
    // GPS churn: with reputation on, the second request of a known
    // offender is deferred after a single term (no 2-term grace).
    LeaseOsRuntime leaseos(sim, cpu, radio, server, policy(true));
    auto &mgr = leaseos.manager();
    auto &lms = server.locationManager();
    gps.setSignalGood(false);

    os::TokenId a = lms.requestLocationUpdates(kApp, 5_s, nullptr);
    sim.runFor(12_s); // FAB confirmed, deferred
    ASSERT_EQ(mgr.table().findByToken(a)->state,
              LeaseState::Deferred);
    lms.removeUpdates(a);
    lms.destroy(a);

    os::TokenId b = lms.requestLocationUpdates(kApp, 5_s, nullptr);
    sim.runFor(6_s); // one term is now enough
    EXPECT_EQ(mgr.table().findByToken(b)->state,
              LeaseState::Deferred);
}

} // namespace
} // namespace leaseos::lease
