/**
 * @file
 * Unit tests for Battery and PowerProfiler.
 */

#include <gtest/gtest.h>

#include "power/battery.h"
#include "power/power_profiler.h"

namespace leaseos::power {
namespace {

using sim::operator""_s;

constexpr Uid kApp = kFirstAppUid;

TEST(BatteryTest, DrainsWithAccountant)
{
    sim::Simulator sim;
    EnergyAccountant acc(sim);
    DeviceProfile p = profiles::pixelXl();
    Battery battery(acc, p);
    ChannelId ch = acc.makeChannel("x");
    acc.setPower(ch, 1000.0, {kApp});
    sim.runFor(10_s);
    EXPECT_DOUBLE_EQ(battery.drainedMj(), 10000.0);
    EXPECT_FALSE(battery.empty());
}

TEST(BatteryTest, RechargeResetsBaseline)
{
    sim::Simulator sim;
    EnergyAccountant acc(sim);
    Battery battery(acc, profiles::pixelXl());
    ChannelId ch = acc.makeChannel("x");
    acc.setPower(ch, 500.0, {kApp});
    sim.runFor(10_s);
    battery.recharge();
    EXPECT_DOUBLE_EQ(battery.drainedMj(), 0.0);
}

TEST(PowerProfilerTest, AveragesConstantDraw)
{
    sim::Simulator sim;
    EnergyAccountant acc(sim);
    PowerProfiler profiler(sim, acc);
    ChannelId ch = acc.makeChannel("x");
    acc.setPower(ch, 200.0, {kApp});
    profiler.start();
    sim.runFor(10_s);
    EXPECT_NEAR(profiler.averageUidPowerMw(kApp), 200.0, 1e-9);
    EXPECT_NEAR(profiler.averageTotalPowerMw(), 200.0, 1e-9);
    EXPECT_TRUE(profiler.totalSeries().empty());
}

TEST(PowerProfilerTest, AveragesAcrossAPowerStep)
{
    sim::Simulator sim;
    EnergyAccountant acc(sim);
    PowerProfiler profiler(sim, acc);
    ChannelId ch = acc.makeChannel("x");
    // Energy drawn before start() is not part of the average.
    acc.setPower(ch, 300.0, {kApp});
    sim.runFor(2_s);
    profiler.start();
    acc.setPower(ch, 100.0, {kApp});
    sim.runFor(5_s);
    acc.setPower(ch, 0.0, {kApp});
    sim.runFor(5_s);
    EXPECT_NEAR(profiler.averageUidPowerMw(kApp), 50.0, 1e-9);
    EXPECT_NEAR(profiler.averageTotalPowerMw(), 50.0, 1e-9);
}

TEST(PowerProfilerTest, UidThatNeverDrewPowerAveragesZero)
{
    sim::Simulator sim;
    EnergyAccountant acc(sim);
    PowerProfiler profiler(sim, acc);
    ChannelId ch = acc.makeChannel("x");
    acc.setPower(ch, 100.0, {kApp});
    profiler.start();
    sim.runFor(5_s);
    EXPECT_DOUBLE_EQ(profiler.averageUidPowerMw(kApp + 1), 0.0);
}

TEST(PowerProfilerTest, StartArmsNoEvent)
{
    // The averages come from the accountant's integrals, so profiling
    // schedules nothing; before any time has passed they read 0.
    sim::Simulator sim;
    EnergyAccountant acc(sim);
    PowerProfiler profiler(sim, acc);
    ChannelId ch = acc.makeChannel("x");
    acc.setPower(ch, 100.0, {kApp});
    profiler.start();
    EXPECT_EQ(sim.pendingEvents(), 0u);
    EXPECT_DOUBLE_EQ(profiler.averageTotalPowerMw(), 0.0);
    EXPECT_DOUBLE_EQ(profiler.averageUidPowerMw(kApp), 0.0);
}

} // namespace
} // namespace leaseos::power
