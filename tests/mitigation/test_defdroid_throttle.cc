/**
 * @file
 * Unit tests for the DefDroid-style throttler and the one-shot throttler.
 */

#include <functional>
#include <string>

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

/** One kind of object DefDroid limits, with its limits in seconds. */
struct LimitCase {
    const char *name;
    /** Create and hold one object for kApp; return its suspended flag. */
    std::function<bool()> (*hold)(os::SystemServer &server);
    int holdLimitS;
    int backoffS;
};

std::function<bool()>
holdWakeLock(os::PowerManagerService &pms, os::WakeLockType type)
{
    os::TokenId t = pms.newWakeLock(kApp, type, "held");
    pms.acquire(t);
    return [&pms, t] { return pms.records().at(t).suspended; };
}

struct DefDroidLimitTest : DefDroidTest,
                           ::testing::WithParamInterface<LimitCase> {
};

TEST_P(DefDroidLimitTest, SuspendsAtHoldLimitAndRestoresAfterBackoff)
{
    // Polls land on multiples of 10 s, and every limit is one, so the
    // object is suspended exactly at its hold limit and restored exactly
    // one back-off later.
    harness::Device device(config());
    device.start();
    std::function<bool()> suspended = GetParam().hold(device.server());
    const sim::Time limit = sim::Time::fromSeconds(GetParam().holdLimitS);
    device.runFor(limit - 1_s);
    EXPECT_FALSE(suspended()) << "1 s before the hold limit";
    device.runFor(2_s);
    EXPECT_TRUE(suspended()) << "1 s after the hold limit";
    device.runFor(sim::Time::fromSeconds(GetParam().backoffS) - 2_s);
    EXPECT_TRUE(suspended()) << "1 s before the back-off ends";
    device.runFor(2_s);
    EXPECT_FALSE(suspended()) << "1 s after the back-off ends";
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, DefDroidLimitTest,
    ::testing::Values(
        LimitCase{"Wakelock",
                  [](os::SystemServer &s) {
                      return holdWakeLock(s.powerManager(),
                                          os::WakeLockType::Partial);
                  },
                  60, 180},
        LimitCase{"Screen",
                  [](os::SystemServer &s) {
                      return holdWakeLock(s.powerManager(),
                                          os::WakeLockType::Full);
                  },
                  60, 240},
        LimitCase{"Gps",
                  [](os::SystemServer &s) -> std::function<bool()> {
                      auto &lms = s.locationManager();
                      os::TokenId t =
                          lms.requestLocationUpdates(kApp, 10_s, nullptr);
                      return [&lms, t] {
                          return lms.records().at(t).suspended;
                      };
                  },
                  90, 60},
        LimitCase{"Sensor",
                  [](os::SystemServer &s) -> std::function<bool()> {
                      auto &sms = s.sensorManager();
                      os::TokenId t = sms.registerListener(
                          kApp, power::SensorType::Accelerometer, 1_s,
                          nullptr);
                      return [&sms, t] {
                          return sms.records().at(t).suspended;
                      };
                  },
                  60, 120},
        LimitCase{"Wifi",
                  [](os::SystemServer &s) -> std::function<bool()> {
                      auto &wms = s.wifiManager();
                      os::TokenId t = wms.createWifiLock(kApp, "held");
                      wms.acquire(t);
                      return [&wms, t] {
                          return wms.records().at(t).suspended;
                      };
                  },
                  60, 240}),
    [](const ::testing::TestParamInfo<LimitCase> &info) {
        return std::string(info.param.name);
    });

TEST_F(DefDroidTest, SparesForegroundApps)
{
    harness::Device device(config());
    auto &pms = device.server().powerManager();
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
    EXPECT_FALSE(pms.records().at(t).suspended);
}

TEST_F(DefDroidTest, GpsRequestChurnCannotDodgeTheClock)
{
    // BetterWeather recreates its request every attempt; the per-uid
    // pressure clock must still catch it and cut its GPS energy below
    // what the same run draws unthrottled.
    auto gpsMj = [](harness::MitigationMode mode) {
        harness::DeviceConfig cfg;
        cfg.mode = mode;
        harness::Device device(cfg);
        device.gpsEnv().setSignalGood(false);
        auto &app = device.install<apps::BetterWeather>();
        device.start();
        device.runFor(10_min);
        power::EnergyAccountant &acc = device.accountant();
        return acc.uidChannelEnergyMj(app.uid(), acc.channelByName("gps"));
    };
    const double vanilla = gpsMj(harness::MitigationMode::None);
    EXPECT_GT(vanilla, 0.0);
    EXPECT_LT(gpsMj(harness::MitigationMode::DefDroid), vanilla);
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
    harness::Device device(cfg);
    auto &pms = device.server().powerManager();
    device.start();
    os::TokenId t =
        pms.newWakeLock(kApp, os::WakeLockType::Partial, "x");
    pms.acquire(t);
    device.runFor(5_min - 1_s); // the hold limit is 5 min
    EXPECT_FALSE(pms.records().at(t).suspended);
    device.runFor(2_s);
    EXPECT_TRUE(pms.records().at(t).suspended);
    // One-shot: never restored.
    device.runFor(30_min);
    EXPECT_TRUE(pms.records().at(t).suspended);
}

TEST_F(ThrottleTest, ReleaseBeforeLimitIsSafe)
{
    harness::DeviceConfig cfg;
    cfg.mode = harness::MitigationMode::OneShotThrottle;
    harness::Device device(cfg);
    auto &pms = device.server().powerManager();
    device.start();
    os::TokenId t =
        pms.newWakeLock(kApp, os::WakeLockType::Partial, "x");
    pms.acquire(t);
    device.runFor(4_min);
    pms.release(t);
    device.runFor(10_min);
    EXPECT_FALSE(pms.records().at(t).suspended);
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
