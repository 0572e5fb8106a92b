/**
 * @file
 * Lease state-machine tests (Fig. 5) driven through real wakelock flows.
 */

#include "lease_fixture.h"

namespace leaseos::lease {
namespace {

using sim::operator""_s;
using sim::operator""_ms;
using testing::LeaseFixture;

struct LeaseStateTest : LeaseFixture {
    os::PowerManagerService &pms = server.powerManager();

    os::TokenId
    makeHeldLock(Uid uid)
    {
        os::TokenId t =
            pms.newWakeLock(uid, os::WakeLockType::Partial, "test");
        pms.acquire(t);
        return t;
    }
};

TEST_F(LeaseStateTest, LeaseCreatedOnKernelObjectCreation)
{
    os::TokenId t = pms.newWakeLock(kApp, os::WakeLockType::Partial, "x");
    LeaseId id = mgr.leaseIdForToken(t);
    ASSERT_NE(id, kInvalidLeaseId);
    const Lease *lease = mgr.lease(id);
    ASSERT_NE(lease, nullptr);
    EXPECT_EQ(lease->state, LeaseState::Active);
    EXPECT_EQ(lease->uid, kApp);
    EXPECT_EQ(lease->rtype, ResourceType::Wakelock);
    EXPECT_EQ(lease->termLength, mgr.policy().initialTerm);
}

TEST_F(LeaseStateTest, UnheldLeaseGoesInactiveAtTermEnd)
{
    os::TokenId t = pms.newWakeLock(kApp, os::WakeLockType::Partial, "x");
    LeaseId id = mgr.leaseIdForToken(t);
    sim.runFor(6_s); // one 5 s term passes with the lock never held
    EXPECT_EQ(mgr.lease(id)->state, LeaseState::Inactive);
}

TEST_F(LeaseStateTest, ReacquireRenewsInactiveLease)
{
    os::TokenId t = pms.newWakeLock(kApp, os::WakeLockType::Partial, "x");
    LeaseId id = mgr.leaseIdForToken(t);
    sim.runFor(6_s);
    ASSERT_EQ(mgr.lease(id)->state, LeaseState::Inactive);
    pms.acquire(t); // §3.2: re-acquire requires a manager check + renewal
    EXPECT_EQ(mgr.lease(id)->state, LeaseState::Active);
}

TEST_F(LeaseStateTest, MisbehavingLeaseIsDeferred)
{
    // Hold the lock and do nothing: Long-Holding.
    os::TokenId t = makeHeldLock(kApp);
    LeaseId id = mgr.leaseIdForToken(t);
    sim.runFor(6_s);
    EXPECT_EQ(mgr.lease(id)->state, LeaseState::Deferred);
    EXPECT_EQ(mgr.lastBehavior(id), BehaviorType::LongHolding);
    // Kernel object temporarily revoked: CPU sleeps.
    EXPECT_FALSE(pms.isEnabled(t));
    EXPECT_TRUE(pms.isHeld(t));
    EXPECT_FALSE(cpu.isAwake());
}

TEST_F(LeaseStateTest, DeferredLeaseRestoredAfterTau)
{
    os::TokenId t = makeHeldLock(kApp);
    LeaseId id = mgr.leaseIdForToken(t);
    sim.runFor(6_s);
    ASSERT_EQ(mgr.lease(id)->state, LeaseState::Deferred);
    sim.runFor(mgr.policy().deferralInterval + 1_s);
    EXPECT_EQ(mgr.lease(id)->state, LeaseState::Active);
    EXPECT_TRUE(pms.isEnabled(t)); // restored
    EXPECT_TRUE(cpu.isAwake());
}

TEST_F(LeaseStateTest, ReleaseDuringDeferralEndsInactive)
{
    os::TokenId t = makeHeldLock(kApp);
    LeaseId id = mgr.leaseIdForToken(t);
    sim.runFor(6_s);
    ASSERT_EQ(mgr.lease(id)->state, LeaseState::Deferred);
    pms.release(t);
    sim.runFor(mgr.policy().deferralInterval + 1_s);
    EXPECT_EQ(mgr.lease(id)->state, LeaseState::Inactive);
    EXPECT_FALSE(pms.isEnabled(t));
    EXPECT_FALSE(cpu.isAwake());
}

TEST_F(LeaseStateTest, DeadOnKernelObjectDestroy)
{
    os::TokenId t = makeHeldLock(kApp);
    LeaseId id = mgr.leaseIdForToken(t);
    pms.destroy(t);
    EXPECT_EQ(mgr.lease(id), nullptr); // reaped
    EXPECT_EQ(mgr.leaseIdForToken(t), kInvalidLeaseId);
    EXPECT_EQ(mgr.lifespanStats().count(), 1u);
}

TEST_F(LeaseStateTest, AcquireDuringDeferralPretendsSuccess)
{
    os::TokenId t = makeHeldLock(kApp);
    LeaseId id = mgr.leaseIdForToken(t);
    sim.runFor(6_s);
    ASSERT_EQ(mgr.lease(id)->state, LeaseState::Deferred);
    pms.acquire(t); // app retries; must not break deferral
    EXPECT_EQ(mgr.lease(id)->state, LeaseState::Deferred);
    EXPECT_FALSE(pms.isEnabled(t));
    EXPECT_FALSE(cpu.isAwake());
}

TEST_F(LeaseStateTest, NormalBehaviourRenewsImmediately)
{
    os::TokenId t = makeHeldLock(kApp);
    LeaseId id = mgr.leaseIdForToken(t);
    // Keep the CPU well used: ~60 % utilisation, no exceptions.
    sim::PeriodicHandle load = sim.schedulePeriodicScoped(1_s, [&] {
        cpu.runWorkFor(kApp, 1.0, 600_ms);
    });
    sim.runFor(30_s);
    EXPECT_EQ(mgr.lease(id)->state, LeaseState::Active);
    EXPECT_EQ(mgr.lease(id)->deferrals, 0u);
    EXPECT_GE(mgr.lease(id)->termIndex, 4);
    EXPECT_TRUE(pms.isEnabled(t));
}

TEST_F(LeaseStateTest, CheckReflectsActiveState)
{
    os::TokenId t = makeHeldLock(kApp);
    LeaseId id = mgr.leaseIdForToken(t);
    EXPECT_TRUE(mgr.check(id));
    sim.runFor(6_s); // now deferred
    EXPECT_FALSE(mgr.check(id));
    EXPECT_FALSE(mgr.check(999999));
}

TEST_F(LeaseStateTest, RenewRejectedWhileDeferred)
{
    os::TokenId t = makeHeldLock(kApp);
    LeaseId id = mgr.leaseIdForToken(t);
    sim.runFor(6_s);
    ASSERT_EQ(mgr.lease(id)->state, LeaseState::Deferred);
    EXPECT_FALSE(mgr.renew(id)); // penalty must be waited out
}

TEST_F(LeaseStateTest, HistoryIsBounded)
{
    os::TokenId t = makeHeldLock(kApp);
    LeaseId id = mgr.leaseIdForToken(t);
    sim.runFor(sim::Time::fromMinutes(30));
    const Lease *lease = mgr.lease(id);
    ASSERT_NE(lease, nullptr);
    EXPECT_EQ(lease->lastBehavior, BehaviorType::LongHolding);
    EXPECT_GT(lease->deferrals, 0u);
    // Every classified term was Long-Holding and deferred the lease.
    EXPECT_EQ(static_cast<std::uint64_t>(lease->behaviorRun),
              lease->deferrals);
}

TEST_F(LeaseStateTest, EachAppLeaseIndependent)
{
    os::TokenId bad = makeHeldLock(kApp);
    os::TokenId good = makeHeldLock(kApp2);
    // kApp2 uses its lock well.
    sim::PeriodicHandle load = sim.schedulePeriodicScoped(1_s, [&] {
        cpu.runWorkFor(kApp2, 1.0, 600_ms);
    });
    // Probe mid-deferral: the bad lease defers at 5 s for 25 s.
    sim.runFor(20_s);
    EXPECT_EQ(mgr.lease(mgr.leaseIdForToken(bad))->state,
              LeaseState::Deferred);
    EXPECT_FALSE(pms.isEnabled(bad));
    EXPECT_EQ(mgr.lease(mgr.leaseIdForToken(good))->state,
              LeaseState::Active);
    EXPECT_TRUE(pms.isEnabled(good));
}

} // namespace
} // namespace leaseos::lease
