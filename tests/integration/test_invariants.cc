/**
 * @file
 * Property / invariant tests over randomised workloads:
 *  - energy conservation: per-uid and per-channel integrals always sum to
 *    the accountant's total;
 *  - lease state machine: random interleavings of app operations and
 *    virtual time never produce an invalid state, dangling term events,
 *    or negative stats;
 *  - mitigation monotonicity: adding LeaseOS never *increases* a buggy
 *    app's power and never changes a healthy foreground app's function.
 */

#include <gtest/gtest.h>

#include "apps/registry.h"
#include "harness/device.h"
#include "lease/leaseos_runtime.h"

namespace leaseos {
namespace {

using sim::operator""_ms;
using sim::operator""_s;
using sim::operator""_min;

constexpr Uid kApp = kFirstAppUid;

// ---- Energy conservation ---------------------------------------------------

class EnergyConservationSweep : public ::testing::TestWithParam<int>
{
};

TEST_P(EnergyConservationSweep, UidAndChannelSumsMatchTotal)
{
    harness::DeviceConfig cfg;
    cfg.mode = harness::MitigationMode::LeaseOS;
    cfg.seed = static_cast<std::uint64_t>(GetParam());
    harness::Device device(cfg);

    auto fleet = apps::installGenericFleet(device, 6);
    std::vector<Uid> uids;
    for (auto *a : fleet) uids.push_back(a->uid());
    device.user().scheduleSession(30_s, 10_min, uids);
    device.start();
    device.runFor(15_min);

    auto &acc = device.accountant();
    double total = acc.totalEnergyMj();
    EXPECT_GT(total, 0.0);

    double uid_sum = 0.0;
    for (Uid uid : acc.knownUids()) uid_sum += acc.uidEnergyMj(uid);
    EXPECT_NEAR(uid_sum, total, total * 1e-9);

    double channel_sum = 0.0;
    for (power::ChannelId ch = 0; ch < acc.channelCount(); ++ch)
        channel_sum += acc.channelEnergyMj(ch);
    EXPECT_NEAR(channel_sum, total, total * 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EnergyConservationSweep,
                         ::testing::Values(1, 2, 3, 5, 8, 13));

// ---- Lease state machine fuzz -----------------------------------------------

class LeaseFuzzSweep : public ::testing::TestWithParam<int>
{
};

TEST_P(LeaseFuzzSweep, RandomOpSequencesKeepInvariants)
{
    harness::DeviceConfig cfg;
    cfg.mode = harness::MitigationMode::LeaseOS;
    cfg.seed = static_cast<std::uint64_t>(GetParam()) * 7919;
    std::uint64_t terms = 0; // outlives the device's term observer
    harness::Device device(cfg);
    auto &sim = device.simulator();
    auto &rng = device.rng();
    auto &pms = device.server().powerManager();
    auto &lms = device.server().locationManager();
    auto &wms = device.server().wifiManager();
    auto &mgr = device.leaseos()->manager();
    // Every term the manager classifies has sane stats.
    mgr.setTermObserver(
        [&terms](const lease::Lease &l, const lease::TermRecord &rec) {
            ++terms;
            EXPECT_GE(rec.stat.holdingSeconds, -1e-9) << "lease " << l.id;
            EXPECT_GE(rec.stat.usageSeconds, -1e-9) << "lease " << l.id;
            EXPECT_GE(rec.stat.utilityScore, 0.0) << "lease " << l.id;
            EXPECT_LE(rec.stat.utilityScore, 100.0) << "lease " << l.id;
        });
    device.start();

    std::vector<os::TokenId> locks;
    std::vector<os::TokenId> gps;
    std::vector<os::TokenId> wifi;

    for (int step = 0; step < 400; ++step) {
        Uid uid = kApp + static_cast<Uid>(rng.uniformInt(0, 3));
        switch (rng.uniformInt(0, 8)) {
          case 0:
            locks.push_back(pms.newWakeLock(
                uid, os::WakeLockType::Partial, "fuzz"));
            break;
          case 1:
            if (!locks.empty())
                pms.acquire(locks[static_cast<std::size_t>(rng.uniformInt(
                    0, static_cast<int>(locks.size()) - 1))]);
            break;
          case 2:
            if (!locks.empty())
                pms.release(locks[static_cast<std::size_t>(rng.uniformInt(
                    0, static_cast<int>(locks.size()) - 1))]);
            break;
          case 3:
            if (!locks.empty()) {
                auto idx = static_cast<std::size_t>(rng.uniformInt(
                    0, static_cast<int>(locks.size()) - 1));
                pms.destroy(locks[idx]);
                locks.erase(locks.begin() + static_cast<long>(idx));
            }
            break;
          case 4:
            gps.push_back(
                lms.requestLocationUpdates(uid, 5_s, nullptr));
            break;
          case 5:
            if (!gps.empty()) {
                auto idx = static_cast<std::size_t>(rng.uniformInt(
                    0, static_cast<int>(gps.size()) - 1));
                lms.removeUpdates(gps[idx]);
                if (rng.chance(0.5)) {
                    lms.destroy(gps[idx]);
                    gps.erase(gps.begin() + static_cast<long>(idx));
                }
            }
            break;
          case 6:
            wifi.push_back(wms.createWifiLock(uid, "fuzz"));
            wms.acquire(wifi.back());
            break;
          case 7:
            if (!wifi.empty())
                wms.release(wifi[static_cast<std::size_t>(rng.uniformInt(
                    0, static_cast<int>(wifi.size()) - 1))]);
            break;
          case 8:
            device.cpu().runWorkFor(uid, rng.uniform(0.1, 2.0),
                                    100_ms);
            break;
        }
        sim.run(sim.now() + rng.uniformTime(100_ms, 20_s));
    }

    EXPECT_GT(terms, 0u);

    // Invariants: every live lease is in a legal state.
    for (lease::Lease *l : mgr.table().all()) {
        EXPECT_NE(l->state, lease::LeaseState::Dead);
        EXPECT_GE(l->termIndex, 0);
        EXPECT_GE(l->consecutiveMisbehaved, 0);
        EXPECT_GE(l->consecutiveNormal, 0);
        // Deferred/active leases must have a pending event armed.
        if (l->state == lease::LeaseState::Active ||
            l->state == lease::LeaseState::Deferred) {
            EXPECT_TRUE(sim.pending(l->pendingEvent))
                << "lease " << l->id << " in state "
                << lease::leaseStateName(l->state)
                << " has no armed event";
        }
    }
    // Accounting stays exact under churn.
    double total = device.accountant().totalEnergyMj();
    double uid_sum = 0.0;
    for (Uid uid : device.accountant().knownUids())
        uid_sum += device.accountant().uidEnergyMj(uid);
    EXPECT_NEAR(uid_sum, total, total * 1e-9 + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LeaseFuzzSweep,
                         ::testing::Range(1, 9));

// ---- Mitigation monotonicity -------------------------------------------------

class CrossDeviceSweep
    : public ::testing::TestWithParam<std::tuple<std::string, std::string>>
{
};

TEST_P(CrossDeviceSweep, LeaseNeverIncreasesBuggyAppPower)
{
    const auto &[app_key, phone] = GetParam();
    const auto &spec = apps::buggySpec(app_key);
    auto run = [&](harness::MitigationMode mode) {
        harness::DeviceConfig cfg;
        cfg.mode = mode;
        cfg.profile = power::profiles::byName(phone);
        harness::Device device(cfg);
        spec.trigger(device);
        app::App &app = spec.install(device);
        device.start();
        device.runFor(10_min);
        return device.appPowerMw(app.uid());
    };
    double vanilla = run(harness::MitigationMode::None);
    double leased = run(harness::MitigationMode::LeaseOS);
    EXPECT_LE(leased, vanilla * 1.001)
        << spec.display << " on " << phone;
}

INSTANTIATE_TEST_SUITE_P(
    AppsByPhone, CrossDeviceSweep,
    ::testing::Combine(::testing::Values("torch", "k9", "gpslogger",
                                         "betterweather", "riot"),
                       ::testing::Values("pixelxl", "nexus6", "motog")),
    [](const ::testing::TestParamInfo<
        std::tuple<std::string, std::string>> &info) {
        return std::get<0>(info.param) + "_" + std::get<1>(info.param);
    });

} // namespace
} // namespace leaseos
