/**
 * @file
 * Tests for the DVFS extension (§8): governor behaviour, superlinear
 * power savings, and the frequency-normalised utilisation metric. The
 * operating point shows in the busy channel's draw: each level has its
 * own power factor.
 */

#include <gtest/gtest.h>

#include "power/cpu_model.h"
#include "power/device_profile.h"

namespace leaseos::power {
namespace {

using sim::operator""_s;

constexpr Uid kApp = kFirstAppUid;

struct DvfsFixture : ::testing::Test {
    sim::Simulator sim;
    EnergyAccountant acc{sim};
    DeviceProfile profile = profiles::pixelXl();
    CpuModel cpu{sim, acc, profile};

    void
    SetUp() override
    {
        cpu.setScreenOn(true); // keep awake; screen is a separate model
        cpu.setDvfsEnabled(true);
    }

    /** Busy-channel energy drawn so far, in mJ. */
    double
    busyMj() const
    {
        return acc.channelEnergyMj(acc.channelByName("cpu_busy"));
    }

    /** Busy energy of @p load cores for @p seconds at @p level. */
    double
    levelMj(double load, std::size_t level, double seconds) const
    {
        return load * profile.cpuActivePerCoreMw *
            profile.dvfsLevels[level].powerFactor * seconds;
    }

    /** Busy energy of one second of @p load cores run alone. */
    double
    oneSecondOf(double load)
    {
        const double before = busyMj();
        cpu.runWorkFor(kApp, load, 1_s);
        sim.runFor(2_s);
        return busyMj() - before;
    }
};

TEST_F(DvfsFixture, IdleSitsAtLowestOperatingPoint)
{
    EXPECT_TRUE(cpu.dvfsEnabled());
    sim.runFor(5_s);
    EXPECT_DOUBLE_EQ(busyMj(), 0.0);
    // The first light work after idle runs at the lowest point.
    EXPECT_NEAR(oneSecondOf(0.4), levelMj(0.4, 0, 1.0), 1e-9);
}

TEST_F(DvfsFixture, GovernorFollowsLoad)
{
    const std::size_t top = profile.dvfsLevels.size() - 1;
    // ~88 % of 4 cores needs the top point.
    EXPECT_NEAR(oneSecondOf(3.5), levelMj(3.5, top, 1.0), 1e-9);
    // Needs ~0.26 of top freq: back to the lowest point.
    EXPECT_NEAR(oneSecondOf(0.8), levelMj(0.8, 0, 1.0), 1e-9);
    // Needs ~0.65: the middle point.
    EXPECT_NEAR(oneSecondOf(2.0), levelMj(2.0, 1, 1.0), 1e-9);
}

TEST_F(DvfsFixture, LightLoadDrawsSuperlinearlyLess)
{
    // Same load with and without DVFS: the low operating point's power
    // factor (0.28) cuts the busy draw.
    double idle0 = acc.totalEnergyMj();
    cpu.runWorkFor(kApp, 0.5, 10_s);
    sim.runFor(10_s);
    double with_dvfs = acc.totalEnergyMj() - idle0;

    cpu.setDvfsEnabled(false);
    double idle1 = acc.totalEnergyMj();
    cpu.runWorkFor(kApp, 0.5, 10_s);
    sim.runFor(10_s);
    double without = acc.totalEnergyMj() - idle1;

    EXPECT_LT(with_dvfs, 0.5 * without);
}

TEST_F(DvfsFixture, BusyEnergyFollowsTheOperatingPoint)
{
    // 5 s at the top point, then 5 s idle at the lowest: only the work
    // draws busy power, at the top point's factor.
    const std::size_t top = profile.dvfsLevels.size() - 1;
    cpu.runWorkFor(kApp, 3.5, 5_s);
    sim.runFor(10_s);
    EXPECT_NEAR(busyMj(), levelMj(3.5, top, 5.0), 1e-9);
}

TEST_F(DvfsFixture, NormalizedSecondsWeightByFrequency)
{
    // 10 s of 0.5-core work at the lowest point (freq 0.45).
    cpu.runWorkFor(kApp, 0.5, 10_s);
    sim.runFor(10_s);
    EXPECT_NEAR(cpu.cpuSeconds(kApp), 5.0, 0.01);
    EXPECT_NEAR(cpu.normalizedCpuSeconds(kApp),
                5.0 * profile.dvfsLevels[0].freq, 0.05);
}

TEST_F(DvfsFixture, DisabledModelUnchanged)
{
    cpu.setDvfsEnabled(false);
    cpu.runWorkFor(kApp, 0.5, 10_s);
    sim.runFor(10_s);
    EXPECT_DOUBLE_EQ(cpu.cpuSeconds(kApp),
                     cpu.normalizedCpuSeconds(kApp));
}

TEST_F(DvfsFixture, EmptyLevelTableDisablesGracefully)
{
    DeviceProfile bare = profile;
    bare.dvfsLevels.clear();
    CpuModel cpu2(sim, acc, bare);
    cpu2.setDvfsEnabled(true);
    EXPECT_FALSE(cpu2.dvfsEnabled());
}

} // namespace
} // namespace leaseos::power
