/**
 * @file
 * Unit tests for network/GPS/motion/user environments.
 */

#include <gtest/gtest.h>

#include "harness/device.h"

namespace leaseos::env {
namespace {

using sim::operator""_s;
using sim::operator""_ms;
using sim::operator""_min;

constexpr Uid kApp = kFirstAppUid;

struct EnvFixture : ::testing::Test {
    harness::Device device;
};

TEST_F(EnvFixture, HealthyRequestCompletesOk)
{
    NetResult got = NetResult::Timeout;
    device.network().httpRequest(kApp, "srv", 250000,
                                 [&](NetResult r) { got = r; });
    device.runFor(5_s);
    EXPECT_EQ(got, NetResult::Ok);
}

TEST_F(EnvFixture, DisconnectedFailsFast)
{
    device.network().setConnected(false);
    NetResult got = NetResult::Ok;
    sim::Time start = device.simulator().now();
    sim::Time done;
    device.network().httpRequest(kApp, "srv", 250000, [&](NetResult r) {
        got = r;
        done = device.simulator().now();
    });
    device.runFor(5_s);
    EXPECT_EQ(got, NetResult::Disconnected);
    EXPECT_LT((done - start).millis(), 100);
}

TEST_F(EnvFixture, UnhealthyServerTimesOutSlowly)
{
    device.network().setServerFailProbability("bad", 1.0);
    NetResult got = NetResult::Ok;
    sim::Time start = device.simulator().now();
    sim::Time done;
    device.network().httpRequest(kApp, "bad", 1000, [&](NetResult r) {
        got = r;
        done = device.simulator().now();
    });
    device.runFor(60_s);
    EXPECT_EQ(got, NetResult::Timeout);
    EXPECT_NEAR((done - start).seconds(),
                NetworkEnvironment::kServerTimeout.seconds(), 0.5);
}

TEST_F(EnvFixture, GpsEnvironmentTracksVelocity)
{
    device.gpsEnv().setVelocity(3.0, 4.0);
    device.runFor(10_s);
    GeoPoint p = device.gpsEnv().positionAt(device.simulator().now());
    EXPECT_NEAR(p.x, 30.0, 1e-6);
    EXPECT_NEAR(p.y, 40.0, 1e-6);
    // Velocity change re-anchors.
    device.gpsEnv().setVelocity(0.0, 0.0);
    device.runFor(10_s);
    GeoPoint q = device.gpsEnv().positionAt(device.simulator().now());
    EXPECT_NEAR(q.x, 30.0, 1e-6);
}

TEST_F(EnvFixture, MotionModelStillTimeAndListeners)
{
    int motions = 0;
    device.motion().addMotionListener([&] { ++motions; });
    device.runFor(5_min);
    EXPECT_GE(device.motion().stillFor(), 5_min);
    device.motion().setStationary(false);
    EXPECT_EQ(motions, 1);
    EXPECT_EQ(device.motion().stillFor(), sim::Time::zero());
    device.motion().setStationary(true);
    device.runFor(1_min);
    EXPECT_GE(device.motion().stillFor(), 1_min);
}

TEST_F(EnvFixture, MotionReadingsDifferByState)
{
    // Stationary: accelerometer quiet.
    EXPECT_DOUBLE_EQ(
        device.motion().reading(power::SensorType::Accelerometer, 100_s),
        0.0);
    device.motion().setStationary(false);
    bool any_nonzero = false;
    for (int i = 0; i < 20; ++i) {
        if (device.motion().reading(power::SensorType::Accelerometer,
                                    sim::Time::fromSeconds(i)) != 0.0)
            any_nonzero = true;
    }
    EXPECT_TRUE(any_nonzero);
}

TEST_F(EnvFixture, UserSessionDrivesScreenAndForeground)
{
    auto &am = device.server().activityManager();
    am.registerApp(kApp, "app");
    device.user().scheduleSession(1_min, 5_min, {kApp});
    device.runFor(2_min);
    EXPECT_TRUE(device.user().sessionActive());
    EXPECT_TRUE(device.server().displayManager().screenOn());
    EXPECT_EQ(am.foreground(), kApp);
    EXPECT_FALSE(device.motion().stationary());
    device.runFor(5_min);
    EXPECT_FALSE(device.user().sessionActive());
    EXPECT_FALSE(device.server().displayManager().screenOn());
    EXPECT_EQ(am.foreground(), kInvalidUid);
    EXPECT_GT(device.user().interactionCount(), 10u);
    EXPECT_GT(am.userInteractionCount(kApp), 10u);
}

TEST_F(EnvFixture, UserSessionSwitchesApps)
{
    auto &am = device.server().activityManager();
    device.user().setAppSwitchInterval(30_s);
    device.user().scheduleSession(sim::Time::zero(), 5_min,
                                  {kApp, kApp + 1, kApp + 2});
    std::set<Uid> seen;
    am.addForegroundListener([&](Uid u) {
        if (u != kInvalidUid) seen.insert(u);
    });
    device.runFor(6_min);
    EXPECT_GE(seen.size(), 3u);
}

TEST_F(EnvFixture, InteractionHandlerInvoked)
{
    int hits = 0;
    device.user().setInteractionHandler(kApp, [&] { ++hits; });
    device.user().scheduleSession(sim::Time::zero(), 2_min, {kApp});
    device.runFor(3_min);
    EXPECT_GT(hits, 5);
}

} // namespace
} // namespace leaseos::env
