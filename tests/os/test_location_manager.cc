/**
 * @file
 * Unit tests for LocationManagerService: fixes, suspension, metrics.
 */

#include "os_fixture.h"

namespace leaseos::os {
namespace {

using sim::operator""_s;
using sim::operator""_min;
using testing::OsFixture;

struct CountingLocationListener : LocationListener {
    int fixes = 0;
    GeoPoint last;

    void
    onLocation(const GeoPoint &p) override
    {
        ++fixes;
        last = p;
    }
};

struct LocationManagerTest : OsFixture {
    LocationManagerService &lms = server.locationManager();
    CountingLocationListener listener;
};

TEST_F(LocationManagerTest, RequestStartsGpsSearch)
{
    TokenId t = lms.requestLocationUpdates(kApp, 10_s, &listener);
    EXPECT_TRUE(lms.isLive(t));
    EXPECT_EQ(gps.state(), power::GpsModel::State::Searching);
    sim.runFor(30_s);
    EXPECT_EQ(gps.state(), power::GpsModel::State::Tracking);
    EXPECT_GT(listener.fixes, 0);
}

TEST_F(LocationManagerTest, RemoveUpdatesStopsGps)
{
    TokenId t = lms.requestLocationUpdates(kApp, 10_s, &listener);
    sim.runFor(30_s);
    lms.removeUpdates(t);
    EXPECT_FALSE(lms.isLive(t));
    EXPECT_EQ(gps.state(), power::GpsModel::State::Off);
    int fixes = listener.fixes;
    sim.runFor(60_s);
    EXPECT_EQ(listener.fixes, fixes);
}

TEST_F(LocationManagerTest, BadSignalYieldsNoFixTime)
{
    gps.setSignalGood(false);
    lms.requestLocationUpdates(kApp, 10_s, &listener);
    sim.runFor(1_min);
    EXPECT_EQ(listener.fixes, 0);
    EXPECT_NEAR(lms.requestSeconds(kApp), 60.0, 0.5);
    EXPECT_NEAR(lms.noFixSeconds(kApp), 60.0, 0.5);
}

TEST_F(LocationManagerTest, GoodSignalHasLowNoFixShare)
{
    lms.requestLocationUpdates(kApp, 10_s, &listener);
    sim.runFor(10_min);
    double no_fix = lms.noFixSeconds(kApp);
    double total = lms.requestSeconds(kApp);
    EXPECT_LT(no_fix / total, 0.05);
    EXPECT_EQ(lms.fixCount(kApp), static_cast<std::uint64_t>(listener.fixes));
}

TEST_F(LocationManagerTest, SuspendWithholdsCallbacksAndPower)
{
    TokenId t = lms.requestLocationUpdates(kApp, 10_s, &listener);
    sim.runFor(60_s);
    int fixes = listener.fixes;
    lms.suspend(t);
    EXPECT_TRUE(lms.records().at(t).suspended);
    EXPECT_EQ(gps.state(), power::GpsModel::State::Off);
    sim.runFor(60_s);
    EXPECT_EQ(listener.fixes, fixes); // callbacks withheld (§4.6)
    lms.restore(t);
    sim.runFor(60_s);
    EXPECT_GT(listener.fixes, fixes); // resumed seamlessly
}

TEST_F(LocationManagerTest, DistanceTracksMovement)
{
    // Device moving east at 10 m/s.
    lms.setPositionFn([](sim::Time t) {
        return GeoPoint{10.0 * t.seconds(), 0.0};
    });
    lms.requestLocationUpdates(kApp, 10_s, &listener);
    sim.runFor(5_min);
    // ~290 s of tracking at 10 m/s (minus the ~8 s TTFF).
    EXPECT_GT(lms.distanceMeters(kApp), 2000.0);
    EXPECT_LT(lms.distanceMeters(kApp), 3100.0);
}

TEST_F(LocationManagerTest, StationaryDeviceZeroDistance)
{
    lms.requestLocationUpdates(kApp, 10_s, &listener);
    sim.runFor(5_min);
    EXPECT_DOUBLE_EQ(lms.distanceMeters(kApp), 0.0);
    EXPECT_GT(lms.fixCount(kApp), 0u);
}

TEST_F(LocationManagerTest, GlobalFilterGatesRequests)
{
    lms.requestLocationUpdates(kApp, 10_s, &listener);
    lms.setGlobalFilter([this](Uid uid) { return uid != kApp; });
    EXPECT_EQ(gps.state(), power::GpsModel::State::Off);
    sim.runFor(60_s);
    EXPECT_EQ(listener.fixes, 0);
    lms.setGlobalFilter(nullptr);
    sim.runFor(60_s);
    EXPECT_GT(listener.fixes, 0);
}

TEST_F(LocationManagerTest, SharedGpsAcrossApps)
{
    CountingLocationListener l2;
    lms.requestLocationUpdates(kApp, 10_s, &listener);
    lms.requestLocationUpdates(kApp2, 10_s, &l2);
    sim.runFor(60_s);
    EXPECT_GT(listener.fixes, 0);
    EXPECT_GT(l2.fixes, 0);
    // Both uids accrue request time and share GPS power.
    EXPECT_GT(lms.requestSeconds(kApp2), 0.0);
    EXPECT_NEAR(acc.uidEnergyMj(kApp), acc.uidEnergyMj(kApp2), 5.0);
}

TEST_F(LocationManagerTest, DestroyCleansUp)
{
    TokenId t = lms.requestLocationUpdates(kApp, 10_s, &listener);
    lms.destroy(t);
    EXPECT_FALSE(lms.isLive(t));
    EXPECT_EQ(gps.state(), power::GpsModel::State::Off);
    EXPECT_FALSE(lms.records().contains(t));
}

TEST_F(LocationManagerTest, RequestCountTracksCalls)
{
    TokenId a = lms.requestLocationUpdates(kApp, 10_s, &listener);
    lms.removeUpdates(a);
    lms.requestLocationUpdates(kApp, 10_s, &listener);
    EXPECT_EQ(lms.requestCount(kApp), 2u);
}

} // namespace
} // namespace leaseos::os
