/**
 * @file
 * Unit tests for PowerManagerService wakelock semantics and hooks.
 */

#include "os_fixture.h"

namespace leaseos::os {
namespace {

using sim::operator""_s;
using testing::OsFixture;

struct PowerManagerTest : OsFixture {
    PowerManagerService &pms = server.powerManager();
};

TEST_F(PowerManagerTest, AcquireWakesCpu)
{
    TokenId t = pms.newWakeLock(kApp, WakeLockType::Partial, "sync");
    EXPECT_FALSE(cpu.isAwake());
    pms.acquire(t);
    EXPECT_TRUE(cpu.isAwake());
    EXPECT_TRUE(pms.isHeld(t));
    EXPECT_TRUE(pms.isEnabled(t));
    pms.release(t);
    EXPECT_FALSE(pms.isHeld(t));
    sim.runFor(1_s);
    EXPECT_FALSE(cpu.isAwake());
}

TEST_F(PowerManagerTest, HoldTimeAccrues)
{
    TokenId t = pms.newWakeLock(kApp, WakeLockType::Partial, "x");
    pms.acquire(t);
    sim.runFor(30_s);
    pms.release(t);
    sim.runFor(30_s);
    EXPECT_NEAR(pms.heldSeconds(kApp), 30.0, 0.1);
    EXPECT_NEAR(pms.enabledSeconds(kApp), 30.0, 0.1);
    EXPECT_NEAR(pms.heldSecondsForToken(t), 30.0, 0.1);
}

TEST_F(PowerManagerTest, SuspendRevokesWithoutAppVisibility)
{
    TokenId t = pms.newWakeLock(kApp, WakeLockType::Partial, "x");
    pms.acquire(t);
    sim.runFor(10_s);
    pms.suspend(t);
    // The app still "holds" the lock, but the CPU may sleep.
    EXPECT_TRUE(pms.isHeld(t));
    EXPECT_TRUE(pms.isSuspended(t));
    EXPECT_FALSE(pms.isEnabled(t));
    sim.runFor(10_s);
    EXPECT_FALSE(cpu.isAwake());
    EXPECT_NEAR(pms.heldSeconds(kApp), 20.0, 0.1);
    EXPECT_NEAR(pms.enabledSeconds(kApp), 10.0, 0.1);
    pms.restore(t);
    EXPECT_TRUE(pms.isEnabled(t));
    EXPECT_TRUE(cpu.isAwake());
}

TEST_F(PowerManagerTest, AcquireDuringSuspensionPretendsSuccess)
{
    TokenId t = pms.newWakeLock(kApp, WakeLockType::Partial, "x");
    pms.acquire(t);
    pms.suspend(t);
    pms.acquire(t); // §4.6: the OS pretends the acquire succeeds
    EXPECT_TRUE(pms.isHeld(t));
    EXPECT_FALSE(pms.isEnabled(t));
    sim.runFor(1_s);
    EXPECT_FALSE(cpu.isAwake());
}

TEST_F(PowerManagerTest, ReleaseDuringSuspensionSticks)
{
    TokenId t = pms.newWakeLock(kApp, WakeLockType::Partial, "x");
    pms.acquire(t);
    pms.suspend(t);
    pms.release(t);
    pms.restore(t);
    EXPECT_FALSE(pms.isHeld(t));
    EXPECT_FALSE(pms.isEnabled(t));
    sim.runFor(1_s);
    EXPECT_FALSE(cpu.isAwake());
}

TEST_F(PowerManagerTest, GlobalFilterDisablesUid)
{
    TokenId t = pms.newWakeLock(kApp, WakeLockType::Partial, "x");
    pms.acquire(t);
    pms.setGlobalFilter([this](Uid uid) { return uid != kApp; });
    EXPECT_FALSE(pms.isEnabled(t));
    sim.runFor(1_s);
    EXPECT_FALSE(cpu.isAwake());
    pms.clearGlobalFilter();
    EXPECT_TRUE(pms.isEnabled(t));
}

TEST_F(PowerManagerTest, FullLockForcesScreenOn)
{
    TokenId t = pms.newWakeLock(kApp, WakeLockType::Full, "screen");
    EXPECT_FALSE(screen.isOn());
    pms.acquire(t);
    EXPECT_TRUE(screen.isOn());
    EXPECT_TRUE(cpu.isAwake());
    sim.runFor(10_s);
    // Screen power billed to the forcing app.
    acc.sync();
    EXPECT_GT(acc.uidEnergyMj(kApp), profile.screenBaseMw * 9.0);
    pms.release(t);
    EXPECT_FALSE(screen.isOn());
}

TEST_F(PowerManagerTest, CountsAcquiresAndReleases)
{
    TokenId t = pms.newWakeLock(kApp, WakeLockType::Partial, "x");
    for (int i = 0; i < 5; ++i) {
        pms.acquire(t);
        pms.release(t);
    }
    EXPECT_EQ(pms.acquireCount(kApp), 5u);
    EXPECT_EQ(pms.releaseCount(kApp), 5u);
}

TEST_F(PowerManagerTest, MultipleHoldersShareIdleCost)
{
    TokenId a = pms.newWakeLock(kApp, WakeLockType::Partial, "a");
    TokenId b = pms.newWakeLock(kApp2, WakeLockType::Partial, "b");
    pms.acquire(a);
    pms.acquire(b);
    sim.runFor(10_s);
    acc.sync();
    EXPECT_NEAR(acc.uidEnergyMj(kApp), acc.uidEnergyMj(kApp2), 1.0);
    auto owners = pms.enabledOwners();
    EXPECT_EQ(owners.size(), 2u);
}

TEST_F(PowerManagerTest, DestroyedLockDropsWakeSource)
{
    TokenId t = pms.newWakeLock(kApp, WakeLockType::Partial, "x");
    pms.acquire(t);
    pms.destroy(t);
    sim.runFor(1_s);
    EXPECT_FALSE(cpu.isAwake());
    EXPECT_FALSE(pms.isHeld(t));
}

TEST_F(PowerManagerTest, UnknownTokenOperationsAreSafe)
{
    pms.acquire(999);
    pms.release(999);
    pms.suspend(999);
    pms.restore(999);
    pms.destroy(999);
    EXPECT_FALSE(pms.isHeld(999));
    EXPECT_EQ(pms.ownerOf(999), kInvalidUid);
}

TEST_F(PowerManagerTest, OwnerAndTagLookup)
{
    TokenId t = pms.newWakeLock(kApp, WakeLockType::Partial, "sync_lock");
    EXPECT_EQ(pms.ownerOf(t), kApp);
    EXPECT_EQ(pms.tagOf(t), "sync_lock");
}

} // namespace
} // namespace leaseos::os
