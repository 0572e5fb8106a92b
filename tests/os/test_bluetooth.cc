/**
 * @file
 * Unit tests for BluetoothService, its lease proxy, and the beacon
 * scanner misbehaviour pattern.
 */

#include "os_fixture.h"

#include "apps/buggy/beacon_scanner.h"
#include "harness/device.h"

namespace leaseos::os {
namespace {

using sim::operator""_s;
using sim::operator""_min;
using testing::OsFixture;

struct CountingScanListener : ScanListener {
    int found = 0;

    void
    onDeviceFound(std::uint64_t) override
    {
        ++found;
    }
};

struct BluetoothTest : OsFixture {
    BluetoothService &svc = server.bluetoothService();
    CountingScanListener listener;
};

TEST_F(BluetoothTest, ScanDrawsPowerAndDiscovers)
{
    TokenId t = svc.startScan(kApp, &listener);
    EXPECT_TRUE(svc.isActive(t));
    EXPECT_TRUE(bluetooth.scanning());
    sim.runFor(1_min);
    EXPECT_GT(listener.found, 0);
    EXPECT_EQ(svc.discoveries(kApp),
              static_cast<std::uint64_t>(listener.found));
    EXPECT_NEAR(svc.scanSeconds(kApp), 60.0, 0.5);
    EXPECT_GT(acc.uidEnergyMj(kApp),
              power::BluetoothModel::kScanMw * 55.0);
    svc.stopScan(t);
    EXPECT_FALSE(bluetooth.scanning());
}

TEST_F(BluetoothTest, SuspendSilencesScan)
{
    TokenId t = svc.startScan(kApp, &listener);
    sim.runFor(30_s);
    int found = listener.found;
    svc.suspend(t);
    EXPECT_FALSE(bluetooth.scanning());
    sim.runFor(1_min);
    EXPECT_EQ(listener.found, found);
    svc.restore(t);
    sim.runFor(1_min);
    EXPECT_GT(listener.found, found);
}

TEST_F(BluetoothTest, NoNearbyDevicesNoDiscoveries)
{
    svc.setNearbyDevices(0);
    svc.startScan(kApp, &listener);
    sim.runFor(1_min);
    EXPECT_EQ(listener.found, 0);
    EXPECT_TRUE(bluetooth.scanning()); // still burning power, though
}

TEST_F(BluetoothTest, FilterGatesByUid)
{
    TokenId t = svc.startScan(kApp, &listener);
    svc.setGlobalFilter([this](Uid u) { return u != kApp; });
    EXPECT_FALSE(svc.isEnabled(t));
    EXPECT_FALSE(bluetooth.scanning());
    svc.setGlobalFilter(nullptr);
    EXPECT_TRUE(svc.isEnabled(t));
}

// ---- Lease integration ------------------------------------------------------

struct BeaconScannerTest : ::testing::Test {
};

TEST_F(BeaconScannerTest, AbandonedScanIsLongHoldingUnderLeaseOS)
{
    harness::DeviceConfig cfg;
    cfg.mode = harness::MitigationMode::LeaseOS;
    harness::Device device(cfg);
    auto &app = device.install<apps::BeaconScanner>();
    device.start();
    device.runFor(10_min);
    auto &mgr = device.leaseos()->manager();
    EXPECT_GT(mgr.totalDeferrals(), 0u);
    EXPECT_GT(mgr.behaviorCount(lease::BehaviorType::LongHolding), 0u);
    // Most of the scan time was clawed back.
    double scan_s =
        device.server().bluetoothService().scanSeconds(app.uid());
    EXPECT_LT(scan_s, 0.35 * 600.0);
}

TEST_F(BeaconScannerTest, VanillaScanRunsForever)
{
    harness::Device device;
    auto &app = device.install<apps::BeaconScanner>();
    device.start();
    device.runFor(10_min);
    double scan_s =
        device.server().bluetoothService().scanSeconds(app.uid());
    EXPECT_NEAR(scan_s, 600.0, 2.0);
}

} // namespace
} // namespace leaseos::os
