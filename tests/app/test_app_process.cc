/**
 * @file
 * Tests for AppProcess pause semantics and the Device harness.
 */

#include <gtest/gtest.h>

#include "apps/synthetic/synthetic_apps.h"
#include "harness/device.h"

namespace leaseos::app {
namespace {

using sim::operator""_s;
using sim::operator""_ms;

struct AppProcessTest : ::testing::Test {
    harness::Device device;
    AppProcess proc{device.simulator(), device.cpu(), kFirstAppUid,
                    "test"};
};

TEST_F(AppProcessTest, PostRunsWhenCpuAwake)
{
    device.server().displayManager().userSetScreen(true);
    bool ran = false;
    proc.post(1_s, [&] { ran = true; });
    device.runFor(2_s);
    EXPECT_TRUE(ran);
}

TEST_F(AppProcessTest, PostFreezesWhileCpuSleeps)
{
    bool ran = false;
    proc.post(1_s, [&] { ran = true; });
    device.runFor(10_s);
    EXPECT_FALSE(ran); // CPU asleep: work frozen
    device.server().displayManager().userSetScreen(true);
    device.runFor(100_ms);
    EXPECT_TRUE(ran); // flushed on wake ("resumed seamlessly", §4.6)
}

TEST_F(AppProcessTest, KilledProcessDropsWork)
{
    device.server().displayManager().userSetScreen(true);
    bool ran = false;
    proc.post(1_s, [&] { ran = true; });
    proc.kill();
    device.runFor(2_s);
    EXPECT_FALSE(ran);
    EXPECT_FALSE(proc.alive());
}

TEST_F(AppProcessTest, ComputeScaledHonoursPerfFactor)
{
    // Pixel XL perfFactor is 1.0; Moto G 0.45: the same unit of work
    // takes ~2.2x longer on the slow phone.
    harness::DeviceConfig slow_cfg;
    slow_cfg.profile = power::profiles::motoG();
    harness::Device slow(slow_cfg);
    AppProcess slow_proc(slow.simulator(), slow.cpu(), kFirstAppUid, "p");

    device.server().displayManager().userSetScreen(true);
    slow.server().displayManager().userSetScreen(true);
    proc.computeScaled(1.0, 1_s);
    slow_proc.computeScaled(1.0, 1_s);
    device.runFor(10_s);
    slow.runFor(10_s);
    double fast_cpu = device.cpu().cpuSeconds(kFirstAppUid);
    double slow_cpu = slow.cpu().cpuSeconds(kFirstAppUid);
    EXPECT_NEAR(fast_cpu, 1.0, 1e-6);
    EXPECT_NEAR(slow_cpu, 1.0 / 0.45, 1e-3);
}

struct DeviceTest : ::testing::Test {
};

TEST_F(DeviceTest, ModesConstructCorrectControllers)
{
    for (auto mode :
         {harness::MitigationMode::None, harness::MitigationMode::LeaseOS,
          harness::MitigationMode::Doze,
          harness::MitigationMode::DozeAggressive,
          harness::MitigationMode::DefDroid,
          harness::MitigationMode::OneShotThrottle}) {
        harness::DeviceConfig cfg;
        cfg.mode = mode;
        harness::Device device(cfg);
        EXPECT_EQ(device.leaseos() != nullptr,
                  mode == harness::MitigationMode::LeaseOS);
        EXPECT_EQ(device.doze() != nullptr,
                  mode == harness::MitigationMode::Doze ||
                      mode == harness::MitigationMode::DozeAggressive);
        EXPECT_EQ(device.defdroid() != nullptr,
                  mode == harness::MitigationMode::DefDroid);
        EXPECT_EQ(device.throttler() != nullptr,
                  mode == harness::MitigationMode::OneShotThrottle);
        EXPECT_EQ(device.context().leaseManager != nullptr,
                  mode == harness::MitigationMode::LeaseOS);
    }
}

TEST_F(DeviceTest, InstallAssignsUidsAndWatchesPower)
{
    harness::Device device;
    auto &a = device.install<apps::LongHoldingTestApp>();
    auto &b = device.install<apps::LongHoldingTestApp>();
    EXPECT_EQ(a.uid(), kFirstAppUid);
    EXPECT_EQ(b.uid(), kFirstAppUid + 1);
    device.start();
    device.runFor(1_s);
    EXPECT_NO_THROW(device.appPowerMw(a.uid()));
}

TEST_F(DeviceTest, StartIsIdempotent)
{
    harness::Device device;
    device.install<apps::LongHoldingTestApp>();
    device.start();
    device.start();
    device.runFor(1_s);
    EXPECT_EQ(device.apps().size(), 1u);
}

TEST_F(DeviceTest, BatteryDrainsOverTime)
{
    harness::Device device;
    auto &app = device.install<apps::LongHoldingTestApp>();
    (void)app;
    device.start();
    device.runFor(sim::Time::fromMinutes(10));
    EXPECT_GT(device.battery().drainedMj(), 0.0);
}

} // namespace
} // namespace leaseos::app
