/**
 * @file
 * Unit tests for the CPU wake/sleep and execution model.
 */

#include <gtest/gtest.h>

#include "power/cpu_model.h"
#include "power/device_profile.h"

namespace leaseos::power {
namespace {

using sim::operator""_s;
using sim::operator""_ms;

constexpr Uid kApp = kFirstAppUid;
/** The owner list of kApp alone (the setters take spans). */
constexpr Uid kAppOnly[] = {kApp};

struct CpuFixture : ::testing::Test {
    sim::Simulator sim;
    EnergyAccountant acc{sim};
    DeviceProfile profile = profiles::pixelXl();
    CpuModel cpu{sim, acc, profile};
};

TEST_F(CpuFixture, AsleepByDefault)
{
    EXPECT_FALSE(cpu.isAwake());
    sim.runFor(10_s);
    EXPECT_DOUBLE_EQ(cpu.asleepSeconds(), 10.0);
    EXPECT_DOUBLE_EQ(cpu.awakeSeconds(), 0.0);
}

TEST_F(CpuFixture, SleepPowerIsFloor)
{
    sim.runFor(10_s);
    EXPECT_DOUBLE_EQ(acc.totalEnergyMj(), profile.cpuSleepMw * 10.0);
}

TEST_F(CpuFixture, WakelockWakesCpu)
{
    cpu.setWakelockOwners(kAppOnly);
    EXPECT_TRUE(cpu.isAwake());
    cpu.setWakelockOwners({});
    EXPECT_FALSE(cpu.isAwake());
}

TEST_F(CpuFixture, ScreenWakesCpu)
{
    cpu.setScreenOn(true);
    EXPECT_TRUE(cpu.isAwake());
    cpu.setScreenOn(false);
    EXPECT_FALSE(cpu.isAwake());
}

TEST_F(CpuFixture, WakeWindowExpires)
{
    cpu.addWakeWindow(5_s);
    EXPECT_TRUE(cpu.isAwake());
    sim.runFor(6_s);
    EXPECT_FALSE(cpu.isAwake());
    EXPECT_NEAR(cpu.awakeSeconds(), 5.0, 1e-9);
}

TEST_F(CpuFixture, WakelockIdlePowerAttributedToHolder)
{
    cpu.setWakelockOwners(kAppOnly);
    sim.runFor(10_s);
    // Holder pays the awake-idle draw while the screen is off.
    EXPECT_DOUBLE_EQ(acc.uidEnergyMj(kApp), profile.cpuIdleAwakeMw * 10.0);
}

TEST_F(CpuFixture, WakelockAndAudioOwnersShareIdleOnce)
{
    constexpr Uid kOther = kApp + 1;
    const ChannelId idle = acc.channelByName("cpu_idle");
    const double mw = profile.cpuIdleAwakeMw;
    // Screen off: the merged owners {B, A, B} split the idle draw, and B,
    // holding both a wakelock and a session, is counted once although its
    // two entries are not adjacent.
    const Uid lockOwners[] = {kOther};
    const Uid sessionOwners[] = {kApp, kOther};
    cpu.setWakelockOwners(lockOwners);
    cpu.setAudioSessionOwners(sessionOwners);
    sim.runFor(10_s);
    EXPECT_DOUBLE_EQ(acc.uidChannelEnergyMj(kApp, idle), mw * 10.0 / 2.0);
    EXPECT_DOUBLE_EQ(acc.uidChannelEnergyMj(kOther, idle), mw * 10.0 / 2.0);
    // Without the wakelock the sessions keep the CPU awake on their own.
    cpu.setWakelockOwners({});
    EXPECT_TRUE(cpu.isAwake());
    sim.runFor(10_s);
    EXPECT_DOUBLE_EQ(acc.uidChannelEnergyMj(kApp, idle), mw * 10.0);
    EXPECT_DOUBLE_EQ(acc.uidChannelEnergyMj(kOther, idle), mw * 10.0);
    // A lit screen moves the idle draw to the system uid.
    cpu.setScreenOn(true);
    sim.runFor(10_s);
    EXPECT_DOUBLE_EQ(acc.uidChannelEnergyMj(kSystemUid, idle), mw * 10.0);
    EXPECT_DOUBLE_EQ(acc.uidChannelEnergyMj(kApp, idle), mw * 10.0);
    EXPECT_DOUBLE_EQ(acc.uidChannelEnergyMj(kOther, idle), mw * 10.0);
}

TEST_F(CpuFixture, ScreenOnIdleGoesToSystem)
{
    cpu.setScreenOn(true);
    sim.runFor(10_s);
    EXPECT_DOUBLE_EQ(acc.uidEnergyMj(kSystemUid),
                     profile.cpuIdleAwakeMw * 10.0);
}

TEST_F(CpuFixture, BusyPowerAndCpuSeconds)
{
    cpu.setWakelockOwners(kAppOnly);
    cpu.runWorkFor(kApp, 1.0, 4_s);
    sim.runFor(10_s);
    EXPECT_NEAR(cpu.cpuSeconds(kApp), 4.0, 1e-9);
    double expected = profile.cpuIdleAwakeMw * 10.0 +
        profile.cpuActivePerCoreMw * 4.0;
    EXPECT_NEAR(acc.uidEnergyMj(kApp), expected, 1e-6);
}

TEST_F(CpuFixture, LoadCappedAtCoreCount)
{
    cpu.setScreenOn(true);
    auto t1 = cpu.beginWork(kApp, 8.0); // more than 4 cores
    sim.runFor(1_s);
    cpu.endWork(t1);
    // Power capped to cores * per-core.
    double busy = acc.uidEnergyMj(kApp);
    EXPECT_NEAR(busy,
                profile.cpuActivePerCoreMw * profile.cores, 1e-6);
}

TEST_F(CpuFixture, NotifyOnWakeFiresWhenAwake)
{
    bool fired = false;
    cpu.notifyOnWake([&] { fired = true; });
    sim.runFor(1_s);
    EXPECT_FALSE(fired); // asleep: waits
    cpu.setWakelockOwners(kAppOnly);
    sim.runFor(1_ms);
    EXPECT_TRUE(fired);
}

TEST_F(CpuFixture, NotifyOnWakeImmediateWhenAlreadyAwake)
{
    cpu.setScreenOn(true);
    bool fired = false;
    cpu.notifyOnWake([&] { fired = true; });
    sim.runFor(1_ms);
    EXPECT_TRUE(fired);
}

TEST_F(CpuFixture, StateListenerSeesTransitions)
{
    std::vector<bool> transitions;
    cpu.addStateListener([&](bool awake) { transitions.push_back(awake); });
    cpu.setWakelockOwners(kAppOnly);
    cpu.setWakelockOwners({});
    EXPECT_EQ(transitions, (std::vector<bool>{true, false}));
}

TEST_F(CpuFixture, MultipleWakeSourcesNoDoubleTransition)
{
    int count = 0;
    cpu.addStateListener([&](bool) { ++count; });
    cpu.setWakelockOwners(kAppOnly);
    cpu.setScreenOn(true);
    cpu.setWakelockOwners({});
    EXPECT_TRUE(cpu.isAwake()); // screen still on
    EXPECT_EQ(count, 1);
}

TEST_F(CpuFixture, CpuSecondsOnlyAccrueWhileAwake)
{
    // Work registered while asleep (no wake source) accrues nothing.
    auto t = cpu.beginWork(kApp, 1.0);
    sim.runFor(5_s);
    EXPECT_DOUBLE_EQ(cpu.cpuSeconds(kApp), 0.0);
    cpu.setWakelockOwners(kAppOnly);
    sim.runFor(5_s);
    cpu.endWork(t);
    EXPECT_NEAR(cpu.cpuSeconds(kApp), 5.0, 1e-9);
}

} // namespace
} // namespace leaseos::power
