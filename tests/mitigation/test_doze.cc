/**
 * @file
 * Unit tests for the Doze baseline controller.
 */

#include <gtest/gtest.h>

#include "apps/buggy/torch.h"
#include "apps/buggy/connectbot_screen.h"
#include "harness/device.h"

namespace leaseos::mitigation {
namespace {

using sim::operator""_s;
using sim::operator""_min;

constexpr Uid kApp = kFirstAppUid;

struct DozeTest : ::testing::Test {
    harness::DeviceConfig
    config(bool aggressive)
    {
        harness::DeviceConfig cfg;
        cfg.mode = aggressive ? harness::MitigationMode::DozeAggressive
                              : harness::MitigationMode::Doze;
        return cfg;
    }
};

TEST_F(DozeTest, StockDozeEntersAfterIdleThreshold)
{
    harness::Device device(config(false));
    device.start();
    EXPECT_FALSE(device.doze()->dozing());
    device.runFor(29_min);
    EXPECT_FALSE(device.doze()->dozing());
    device.runFor(2_min); // past the 30 min idle threshold
    EXPECT_TRUE(device.doze()->dozing());
}

TEST_F(DozeTest, AggressiveDozeStartsImmediately)
{
    harness::Device device(config(true));
    device.start();
    EXPECT_TRUE(device.doze()->dozing());
}

TEST_F(DozeTest, DozeGatesBackgroundWakelocks)
{
    harness::Device device(config(true));
    auto &torch = device.install<apps::Torch>();
    (void)torch;
    device.start();
    device.runFor(1_min);
    // The buggy lock is held but Doze keeps the CPU asleep.
    EXPECT_FALSE(device.cpu().isAwake());
}

TEST_F(DozeTest, DozeNeverBlanksForcedScreens)
{
    harness::Device device(config(true));
    device.install<apps::ConnectBotScreen>();
    device.start();
    device.runFor(1_min);
    // Full wakelocks pass through the doze filter: panel stays lit.
    EXPECT_TRUE(device.server().displayManager().screenOn());
}

TEST_F(DozeTest, ScreenUseExitsDoze)
{
    harness::Device device(config(true));
    device.start();
    ASSERT_TRUE(device.doze()->dozing());
    device.server().displayManager().userSetScreen(true);
    EXPECT_FALSE(device.doze()->dozing());
}

TEST_F(DozeTest, MotionExitsDoze)
{
    harness::Device device(config(true));
    device.start();
    ASSERT_TRUE(device.doze()->dozing());
    device.motion().setStationary(false);
    EXPECT_FALSE(device.doze()->dozing());
}

TEST_F(DozeTest, AggressiveDozeReentersAfterShortIdle)
{
    harness::Device device(config(true));
    device.start();
    device.motion().setStationary(false);
    ASSERT_FALSE(device.doze()->dozing());
    device.motion().setStationary(true);
    device.runFor(3_min);
    EXPECT_TRUE(device.doze()->dozing());
}

TEST_F(DozeTest, MaintenanceWindowsOpenPeriodically)
{
    harness::Device device(config(true));
    auto &torch = device.install<apps::Torch>();
    (void)torch;
    device.start();
    // Just before a window the lock is gated; at the window it may run.
    device.runFor(16_min); // past one maintenance interval
    // The CPU got at least a brief awake slice from the window.
    EXPECT_GT(device.cpu().awakeSeconds(), 1.0);
    EXPECT_LT(device.cpu().awakeSeconds(), 120.0);
}

TEST_F(DozeTest, DozeDefersBackgroundAlarms)
{
    harness::Device device(config(true));
    bool ran = false;
    device.server().alarmManager().setAlarm(kApp, 1_min, true,
                                            [&] { ran = true; });
    device.start();
    device.runFor(4_min);
    EXPECT_FALSE(ran); // deferred while dozing
}

} // namespace
} // namespace leaseos::mitigation
