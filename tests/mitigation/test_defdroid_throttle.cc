/**
 * @file
 * Unit tests for the DefDroid-style throttler and the one-shot throttler.
 */

#include <gtest/gtest.h>

#include "apps/buggy/better_weather.h"
#include "apps/buggy/torch.h"
#include "apps/normal/trepn_profiler.h"
#include "harness/device.h"

namespace leaseos::mitigation {
namespace {

using sim::operator""_s;
using sim::operator""_min;

constexpr Uid kApp = kFirstAppUid;

struct DefDroidTest : ::testing::Test {
    harness::DeviceConfig
    config()
    {
        harness::DeviceConfig cfg;
        cfg.mode = harness::MitigationMode::DefDroid;
        return cfg;
    }
};

TEST_F(DefDroidTest, ThrottlesLongHeldWakelock)
{
    harness::Device device(config());
    auto &pms = device.server().powerManager();
    device.start();
    os::TokenId t =
        pms.newWakeLock(kApp, os::WakeLockType::Partial, "leak");
    pms.acquire(t);
    device.runFor(2_min); // past the 60 s hold limit
    EXPECT_TRUE(pms.records().at(t).suspended);
    EXPECT_GT(device.defdroid()->throttleCount(), 0u);
}

TEST_F(DefDroidTest, RestoresAfterBackoff)
{
    harness::Device device(config());
    auto &pms = device.server().powerManager();
    device.start();
    os::TokenId t =
        pms.newWakeLock(kApp, os::WakeLockType::Partial, "leak");
    pms.acquire(t);
    device.runFor(2_min);
    ASSERT_TRUE(pms.records().at(t).suspended);
    // Throttled at ~70 s; the 180 s backoff ends at ~250 s. Probe inside
    // the restored window before the next 60 s hold limit re-trips.
    device.runFor(135_s);
    EXPECT_FALSE(pms.records().at(t).suspended);
}

TEST_F(DefDroidTest, SparesForegroundApps)
{
    harness::Device device(config());
    auto &pms = device.server().powerManager();
    device.server().activityManager().registerApp(kApp, "fg");
    device.server().activityManager().setForeground(kApp);
    device.start();
    os::TokenId t =
        pms.newWakeLock(kApp, os::WakeLockType::Partial, "fg-work");
    pms.acquire(t);
    device.runFor(5_min);
    EXPECT_FALSE(pms.records().at(t).suspended);
}

TEST_F(DefDroidTest, ReleaseBeforeLimitEscapesThrottle)
{
    harness::Device device(config());
    auto &pms = device.server().powerManager();
    device.start();
    os::TokenId t =
        pms.newWakeLock(kApp, os::WakeLockType::Partial, "short");
    pms.acquire(t);
    device.runFor(30_s);
    pms.release(t);
    device.runFor(5_min);
    EXPECT_EQ(device.defdroid()->throttleCount(), 0u);
}

TEST_F(DefDroidTest, GpsRequestChurnCannotDodgeTheClock)
{
    // BetterWeather recreates its request every attempt; the per-uid
    // pressure clock must still catch it.
    harness::Device device(config());
    device.gpsEnv().setSignalGood(false);
    device.install<apps::BetterWeather>();
    device.start();
    device.runFor(10_min);
    EXPECT_GT(device.defdroid()->throttleCount(), 0u);
}

TEST_F(DefDroidTest, CannotTellGoodFromBad)
{
    // The §7.4 point: a legitimate continuous user (Trepn) gets throttled
    // just like a leak — DefDroid has no utility signal.
    harness::Device device(config());
    auto &app = device.install<apps::TrepnProfiler>();
    device.start();
    device.runFor(10_min);
    EXPECT_TRUE(app.stalled());
}

struct ThrottleTest : ::testing::Test {
};

TEST_F(ThrottleTest, RevokesOnceAfterHoldLimit)
{
    harness::DeviceConfig cfg;
    cfg.mode = harness::MitigationMode::OneShotThrottle;
    cfg.throttleHoldLimit = 1_min;
    harness::Device device(cfg);
    auto &pms = device.server().powerManager();
    device.start();
    os::TokenId t =
        pms.newWakeLock(kApp, os::WakeLockType::Partial, "x");
    pms.acquire(t);
    device.runFor(2_min);
    EXPECT_TRUE(pms.records().at(t).suspended);
    EXPECT_EQ(device.throttler()->revocations(), 1u);
    // One-shot: never restored.
    device.runFor(30_min);
    EXPECT_TRUE(pms.records().at(t).suspended);
}

TEST_F(ThrottleTest, ReleaseBeforeLimitIsSafe)
{
    harness::DeviceConfig cfg;
    cfg.mode = harness::MitigationMode::OneShotThrottle;
    cfg.throttleHoldLimit = 1_min;
    harness::Device device(cfg);
    auto &pms = device.server().powerManager();
    device.start();
    os::TokenId t =
        pms.newWakeLock(kApp, os::WakeLockType::Partial, "x");
    pms.acquire(t);
    device.runFor(30_s);
    pms.release(t);
    device.runFor(5_min);
    EXPECT_EQ(device.throttler()->revocations(), 0u);
}

TEST(DefDroidLifetimeTest, DestroyedControllerStopsPolling)
{
    // Regression: the poll loop was a legacy periodic whose EventId went
    // stale after the first fire, so a destroyed controller left an
    // unstoppable repetition behind — polling freed memory. The scoped
    // handle cancels the pending poll on destruction.
    harness::Device device; // MitigationMode::None: no built-in defdroid
    device.start();
    auto &sim = device.simulator();
    std::size_t before = sim.pendingEvents();
    std::size_t during = 0;
    {
        DefDroidController controller(sim, device.server());
        controller.start();
        EXPECT_EQ(sim.pendingEvents(), before + 1)
            << "start() schedules exactly one poll tick";
        device.runFor(25_s); // several polls fire and re-arm
        during = sim.pendingEvents();
    }
    EXPECT_EQ(sim.pendingEvents(), during - 1)
        << "destroying the controller must cancel its pending poll";
}

} // namespace
} // namespace leaseos::mitigation
