/**
 * @file
 * Unit tests for screen, GPS, radio, sensor, and audio power models.
 */

#include <gtest/gtest.h>

#include "power/audio_model.h"
#include "power/gps_model.h"
#include "power/radio_model.h"
#include "power/screen_model.h"
#include "power/sensor_model.h"

namespace leaseos::power {
namespace {

using sim::operator""_s;

constexpr Uid kApp = kFirstAppUid;
constexpr Uid kApp2 = kFirstAppUid + 1;

struct ComponentFixture : ::testing::Test {
    sim::Simulator sim;
    EnergyAccountant acc{sim};
    DeviceProfile profile = profiles::pixelXl();
};

// ---- Screen --------------------------------------------------------------

TEST_F(ComponentFixture, ScreenOffDrawsNothing)
{
    ScreenModel screen(sim, acc, profile);
    sim.runFor(10_s);
    acc.sync();
    EXPECT_DOUBLE_EQ(acc.totalEnergyMj(), 0.0);
}

TEST_F(ComponentFixture, ScreenOnDrawsBasePlusBrightness)
{
    ScreenModel screen(sim, acc, profile);
    screen.setBrightness(1.0);
    screen.setOn(true);
    sim.runFor(10_s);
    acc.sync();
    EXPECT_DOUBLE_EQ(acc.totalEnergyMj(),
                     (profile.screenBaseMw + profile.screenFullMw) * 10.0);
}

TEST_F(ComponentFixture, ScreenWakelockOwnerAttribution)
{
    ScreenModel screen(sim, acc, profile);
    screen.setOn(true, {kApp});
    sim.runFor(10_s);
    acc.sync();
    EXPECT_GT(acc.uidEnergyMj(kApp), 0.0);
    EXPECT_DOUBLE_EQ(acc.uidEnergyMj(kSystemUid), 0.0);
}

TEST_F(ComponentFixture, BrightnessClamped)
{
    ScreenModel screen(sim, acc, profile);
    screen.setBrightness(5.0);
    EXPECT_DOUBLE_EQ(screen.brightness(), 1.0);
    screen.setBrightness(-1.0);
    EXPECT_DOUBLE_EQ(screen.brightness(), 0.0);
}

// ---- GPS -------------------------------------------------------------------

TEST_F(ComponentFixture, GpsOffWithNoRequests)
{
    GpsModel gps(sim, acc, profile);
    EXPECT_EQ(gps.state(), GpsModel::State::Off);
    sim.runFor(5_s);
    acc.sync();
    EXPECT_DOUBLE_EQ(acc.totalEnergyMj(), 0.0);
}

TEST_F(ComponentFixture, GpsAcquiresFixWithGoodSignal)
{
    GpsModel gps(sim, acc, profile);
    bool got_fix = false;
    gps.addFixListener([&](bool fix) { got_fix = fix; });
    gps.setRequestOwners({kApp});
    EXPECT_EQ(gps.state(), GpsModel::State::Searching);
    sim.runFor(gps.fixAcquireDelay() + 1_s);
    EXPECT_EQ(gps.state(), GpsModel::State::Tracking);
    EXPECT_TRUE(got_fix);
}

TEST_F(ComponentFixture, GpsStaysSearchingWithBadSignal)
{
    GpsModel gps(sim, acc, profile);
    gps.setSignalGood(false);
    gps.setRequestOwners({kApp});
    sim.runFor(60_s);
    EXPECT_EQ(gps.state(), GpsModel::State::Searching);
    EXPECT_FALSE(gps.hasFix());
    // All 60 s were spent searching, billed to the requester.
    acc.sync();
    EXPECT_NEAR(acc.uidEnergyMj(kApp), profile.gpsSearchMw * 60.0, 1e-6);
}

TEST_F(ComponentFixture, GpsSignalLossRegressesToSearching)
{
    GpsModel gps(sim, acc, profile);
    gps.setRequestOwners({kApp});
    sim.runFor(gps.fixAcquireDelay() + 1_s);
    ASSERT_TRUE(gps.hasFix());
    gps.setSignalGood(false);
    EXPECT_EQ(gps.state(), GpsModel::State::Searching);
}

TEST_F(ComponentFixture, GpsTurnsOffWhenRequestsEnd)
{
    GpsModel gps(sim, acc, profile);
    gps.setRequestOwners({kApp});
    sim.runFor(20_s);
    gps.setRequestOwners({});
    EXPECT_EQ(gps.state(), GpsModel::State::Off);
    double e = acc.totalEnergyMj();
    sim.runFor(20_s);
    acc.sync();
    EXPECT_DOUBLE_EQ(acc.totalEnergyMj(), e);
}

TEST_F(ComponentFixture, GpsTrackingCheaperThanSearching)
{
    GpsModel gps(sim, acc, profile);
    gps.setRequestOwners({kApp});
    sim.runFor(gps.fixAcquireDelay() + 100_s);
    EXPECT_EQ(gps.state(), GpsModel::State::Tracking);
    EXPECT_TRUE(gps.hasFix());
    // Searching until the fix, then 100 s of the cheaper tracking draw.
    acc.sync();
    EXPECT_NEAR(acc.uidEnergyMj(kApp),
                profile.gpsSearchMw * gps.fixAcquireDelay().seconds() +
                    profile.gpsTrackMw * 100.0,
                1e-6);
    EXPECT_LT(profile.gpsTrackMw, profile.gpsSearchMw);
}

// ---- Radio -------------------------------------------------------------------

TEST_F(ComponentFixture, WifiIdleByDefault)
{
    RadioModel radio(sim, acc, profile);
    sim.runFor(10_s);
    acc.sync();
    EXPECT_NEAR(acc.totalEnergyMj(),
                (profile.wifiIdleMw + profile.cellIdleMw) * 10.0, 1e-6);
}

TEST_F(ComponentFixture, WifiLockDrawAttributedToHolder)
{
    RadioModel radio(sim, acc, profile);
    radio.setWifiLockOwners({kApp});
    sim.runFor(100_s);
    acc.sync();
    EXPECT_NEAR(acc.uidEnergyMj(kApp), profile.wifiLockMw * 100.0, 1e-6);
    // Only the 100 s the lock was held are billed to the holder.
    radio.setWifiLockOwners({});
    sim.runFor(100_s);
    acc.sync();
    EXPECT_NEAR(acc.uidEnergyMj(kApp), profile.wifiLockMw * 100.0, 1e-6);
}

TEST_F(ComponentFixture, WifiTransferBurst)
{
    RadioModel radio(sim, acc, profile);
    auto dur = radio.transferWifi(kApp, 2500000); // 2.5 MB at 2.5 MB/s = 1 s
    EXPECT_NEAR(dur.seconds(), 1.0, 1e-9);
    EXPECT_TRUE(radio.wifiBusy());
    sim.runFor(2_s);
    EXPECT_FALSE(radio.wifiBusy());
    acc.sync();
    EXPECT_NEAR(acc.uidEnergyMj(kApp), profile.wifiActiveMw * 1.0, 1e-6);
}

TEST_F(ComponentFixture, CellTransferBurst)
{
    RadioModel radio(sim, acc, profile);
    radio.transferCell(kApp, 625000); // 625 KB at 625 KB/s = 1 s
    sim.runFor(2_s);
    acc.sync();
    EXPECT_NEAR(acc.uidEnergyMj(kApp), profile.cellActiveMw * 1.0, 1e-6);
}

// ---- Sensors -------------------------------------------------------------

TEST_F(ComponentFixture, SensorDrawsWhileRegistered)
{
    SensorModel sensors(sim, acc, profile);
    sensors.registerUse(SensorType::Orientation, kApp);
    EXPECT_TRUE(sensors.active(SensorType::Orientation));
    sim.runFor(10_s);
    sensors.unregisterUse(SensorType::Orientation, kApp);
    EXPECT_FALSE(sensors.active(SensorType::Orientation));
    sim.runFor(10_s);
    acc.sync();
    EXPECT_NEAR(acc.uidEnergyMj(kApp), profile.orientationMw * 10.0, 1e-6);
}

TEST_F(ComponentFixture, SensorSharedAcrossUids)
{
    SensorModel sensors(sim, acc, profile);
    sensors.registerUse(SensorType::Accelerometer, kApp);
    sensors.registerUse(SensorType::Accelerometer, kApp2);
    sim.runFor(10_s);
    acc.sync();
    EXPECT_NEAR(acc.uidEnergyMj(kApp),
                profile.accelerometerMw * 10.0 / 2.0, 1e-6);
    auto users = sensors.users(SensorType::Accelerometer);
    EXPECT_EQ(users.size(), 2u);
}

TEST_F(ComponentFixture, SensorNestedRegistrationCounts)
{
    SensorModel sensors(sim, acc, profile);
    sensors.registerUse(SensorType::Gyroscope, kApp);
    sensors.registerUse(SensorType::Gyroscope, kApp);
    sensors.unregisterUse(SensorType::Gyroscope, kApp);
    EXPECT_TRUE(sensors.active(SensorType::Gyroscope));
    sensors.unregisterUse(SensorType::Gyroscope, kApp);
    EXPECT_FALSE(sensors.active(SensorType::Gyroscope));
}

TEST_F(ComponentFixture, SensorTypeNames)
{
    EXPECT_STREQ(sensorTypeName(SensorType::Accelerometer),
                 "accelerometer");
    EXPECT_STREQ(sensorTypeName(SensorType::Orientation), "orientation");
}

// ---- Audio -------------------------------------------------------------

TEST_F(ComponentFixture, AudioDrawWhilePlaying)
{
    AudioModel audio(sim, acc, profile);
    audio.setPlaying(kApp, true);
    EXPECT_TRUE(audio.playing(kApp));
    sim.runFor(10_s);
    audio.setPlaying(kApp, false);
    sim.runFor(10_s);
    acc.sync();
    EXPECT_NEAR(acc.uidEnergyMj(kApp), profile.audioMw * 10.0, 1e-6);
}

// ---- Profiles --------------------------------------------------------------

TEST(DeviceProfileTest, AllPhonesConstructible)
{
    for (const auto &p :
         {profiles::pixelXl(), profiles::nexus6(), profiles::nexus4(),
          profiles::galaxyS4(), profiles::motoG(), profiles::nexus5x()}) {
        EXPECT_FALSE(p.name.empty());
        EXPECT_GT(p.batteryMah, 0.0);
        EXPECT_GT(p.batteryEnergyMj(), 0.0);
        EXPECT_GT(p.gpsSearchMw, p.gpsTrackMw);
        EXPECT_GT(p.cpuActivePerCoreMw, p.cpuIdleAwakeMw);
        EXPECT_GT(p.cpuIdleAwakeMw, p.cpuSleepMw);
    }
}

TEST(DeviceProfileTest, ByNameLookup)
{
    EXPECT_EQ(profiles::byName("Pixel XL").name, "Pixel XL");
    EXPECT_EQ(profiles::byName("nexus6").name, "Nexus 6");
    EXPECT_EQ(profiles::byName("Moto G").name, "Moto G");
    EXPECT_THROW(profiles::byName("iPhone"), std::out_of_range);
}

TEST(DeviceProfileTest, LowEndSlowerThanFlagship)
{
    EXPECT_LT(profiles::motoG().perfFactor, profiles::pixelXl().perfFactor);
}

} // namespace
} // namespace leaseos::power
