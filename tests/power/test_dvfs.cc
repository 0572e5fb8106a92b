/**
 * @file
 * Tests for the DVFS extension (§8): governor behaviour, superlinear
 * power savings, per-level accounting, and the frequency-normalised
 * utilisation metric.
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
};

TEST_F(DvfsFixture, IdleSitsAtLowestOperatingPoint)
{
    EXPECT_EQ(cpu.dvfsLevel(), 0u);
    EXPECT_TRUE(cpu.dvfsEnabled());
}

TEST_F(DvfsFixture, GovernorFollowsLoad)
{
    auto heavy = cpu.beginWork(kApp, 3.5); // ~88 % of 4 cores
    EXPECT_EQ(cpu.dvfsLevel(), profile.dvfsLevels.size() - 1);
    cpu.endWork(heavy);
    EXPECT_EQ(cpu.dvfsLevel(), 0u);

    auto light = cpu.beginWork(kApp, 0.8); // needs ~0.26 of top freq
    EXPECT_EQ(cpu.dvfsLevel(), 0u);
    cpu.endWork(light);

    auto medium = cpu.beginWork(kApp, 2.0); // needs ~0.65
    EXPECT_EQ(cpu.dvfsLevel(), 1u);
    cpu.endWork(medium);
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

TEST_F(DvfsFixture, LevelSecondsAccrue)
{
    cpu.runWorkFor(kApp, 3.5, 5_s); // top level for 5 s
    sim.runFor(10_s);
    EXPECT_NEAR(cpu.levelSeconds(profile.dvfsLevels.size() - 1), 5.0,
                0.1);
    EXPECT_NEAR(cpu.levelSeconds(0), 5.0, 0.1);
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
