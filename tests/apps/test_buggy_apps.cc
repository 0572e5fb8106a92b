/**
 * @file
 * Integration tests over the Table 5 corpus: every buggy app must trigger
 * its documented misbehaviour class under LeaseOS and lose substantially
 * less power than on vanilla Android; normal apps must run undisturbed.
 */

#include <gtest/gtest.h>

#include <map>

#include "apps/normal/haven.h"
#include "apps/normal/runkeeper.h"
#include "apps/normal/spotify.h"
#include "apps/normal/trepn_profiler.h"
#include "apps/registry.h"

namespace leaseos::apps {
namespace {

using sim::operator""_s;
using sim::operator""_min;

/** Run one Table 5 app for @p minutes under the given mode. */
struct RunResult {
    double appPowerMw = 0.0;
    std::map<lease::BehaviorType, std::uint64_t> behaviors;
};

RunResult
runSpec(const BuggyAppSpec &spec, harness::MitigationMode mode,
        double minutes = 10.0)
{
    harness::DeviceConfig cfg;
    cfg.mode = mode;
    harness::Device device(cfg);
    spec.trigger(device);
    app::App &app = spec.install(device);
    RunResult result;
    if (device.leaseos()) {
        device.leaseos()->manager().setTermObserver(
            [&](const lease::Lease &, const lease::TermRecord &rec) {
                ++result.behaviors[rec.behavior];
            });
    }
    device.start();
    device.runFor(sim::Time::fromMinutes(minutes));
    result.appPowerMw = device.appPowerMw(app.uid());
    return result;
}

lease::BehaviorType
expectedBehavior(const std::string &name)
{
    if (name == "FAB") return lease::BehaviorType::FrequentAsk;
    if (name == "LHB") return lease::BehaviorType::LongHolding;
    return lease::BehaviorType::LowUtility;
}

/** Parameterised over all 20 Table 5 rows. */
class BuggyAppSweep : public ::testing::TestWithParam<std::string>
{
};

TEST_P(BuggyAppSweep, TriggersExpectedClassAndIsMitigated)
{
    const BuggyAppSpec &spec = buggySpec(GetParam());

    RunResult vanilla = runSpec(spec, harness::MitigationMode::None);
    RunResult leased = runSpec(spec, harness::MitigationMode::LeaseOS);

    // The defect draws real power on vanilla Android.
    EXPECT_GT(vanilla.appPowerMw, 5.0) << spec.display;

    // LeaseOS observes the documented misbehaviour class...
    lease::BehaviorType expected = expectedBehavior(spec.behavior);
    EXPECT_GT(leased.behaviors[expected], 0u)
        << spec.display << " never classified as " << spec.behavior;

    // ...and recovers most of the wasted power.
    double reduction = 1.0 - leased.appPowerMw / vanilla.appPowerMw;
    EXPECT_GT(reduction, 0.30)
        << spec.display << ": vanilla=" << vanilla.appPowerMw
        << " leased=" << leased.appPowerMw;
}

INSTANTIATE_TEST_SUITE_P(
    Table5, BuggyAppSweep,
    ::testing::Values("facebook", "torch", "kontalk", "k9", "servalmesh",
                      "textsecure", "connectbot-screen", "standup-timer",
                      "connectbot-wifi", "betterweather", "where",
                      "mozstumbler", "osmtracker", "gpslogger",
                      "bostonbusmap", "aimsicd", "opensciencemap",
                      "opengpstracker", "tapandturn", "riot"),
    [](const ::testing::TestParamInfo<std::string> &info) {
        std::string name = info.param;
        for (auto &c : name)
            if (c == '-') c = '_';
        return name;
    });

// ---- Normal apps under LeaseOS (usability §7.4) -----------------------------

struct NormalAppsTest : ::testing::Test {
};

TEST_F(NormalAppsTest, RunKeeperUndisturbedUnderLeaseOS)
{
    harness::DeviceConfig cfg;
    cfg.mode = harness::MitigationMode::LeaseOS;
    harness::Device device(cfg);
    device.gpsEnv().setVelocity(2.5, 0.5); // out for a run
    device.motion().setStationary(false);
    auto &app = device.install<RunKeeper>();
    device.start();
    device.runFor(20_min);
    // Tracking must not stall: nearly all expected samples written.
    EXPECT_GT(app.samplesWritten(), app.expectedSamples() * 9 / 10);
    EXPECT_EQ(device.leaseos()->manager().totalDeferrals(), 0u);
}

TEST_F(NormalAppsTest, SpotifyStreamsUninterruptedUnderLeaseOS)
{
    harness::DeviceConfig cfg;
    cfg.mode = harness::MitigationMode::LeaseOS;
    harness::Device device(cfg);
    auto &app = device.install<Spotify>();
    device.start();
    device.runFor(20_min);
    EXPECT_FALSE(app.stalled());
    EXPECT_GT(app.playedSeconds(), 0.9 * 20.0 * 60.0);
    EXPECT_EQ(device.leaseos()->manager().totalDeferrals(), 0u);
}

TEST_F(NormalAppsTest, HavenMonitorsUninterruptedUnderLeaseOS)
{
    harness::DeviceConfig cfg;
    cfg.mode = harness::MitigationMode::LeaseOS;
    harness::Device device(cfg);
    auto &app = device.install<Haven>();
    device.start();
    device.runFor(20_min);
    EXPECT_FALSE(app.stalled());
    EXPECT_EQ(device.leaseos()->manager().totalDeferrals(), 0u);
}

TEST_F(NormalAppsTest, TrepnKeepsSamplingUnderLeaseOS)
{
    harness::DeviceConfig cfg;
    cfg.mode = harness::MitigationMode::LeaseOS;
    harness::Device device(cfg);
    auto &app = device.install<TrepnProfiler>();
    device.start();
    device.runFor(20_min);
    EXPECT_FALSE(app.stalled());
    EXPECT_EQ(device.leaseos()->manager().totalDeferrals(), 0u);
}

TEST_F(NormalAppsTest, ThrottlingDisruptsSpotify)
{
    harness::DeviceConfig cfg;
    cfg.mode = harness::MitigationMode::OneShotThrottle;
    harness::Device device(cfg);
    auto &app = device.install<Spotify>();
    device.start();
    device.runFor(20_min);
    EXPECT_TRUE(app.stalled()); // §7.4: music streaming stopped
    EXPECT_LT(app.playedSeconds(), 0.6 * 20.0 * 60.0);
}

TEST_F(NormalAppsTest, ThrottlingDisruptsHaven)
{
    harness::DeviceConfig cfg;
    cfg.mode = harness::MitigationMode::OneShotThrottle;
    harness::Device device(cfg);
    auto &app = device.install<Haven>();
    device.start();
    device.runFor(20_min);
    EXPECT_TRUE(app.stalled()); // monitoring stopped
}

// ---- Registry sanity ---------------------------------------------------------

TEST(RegistryTest, TwentySpecsWithUniqueKeys)
{
    const auto &specs = table5Specs();
    EXPECT_EQ(specs.size(), 20u);
    std::set<std::string> keys;
    for (const auto &spec : specs) keys.insert(spec.key);
    EXPECT_EQ(keys.size(), 20u);
    EXPECT_THROW(buggySpec("nope"), std::out_of_range);
}

TEST(RegistryTest, GenericFleetInstallsVariedApps)
{
    harness::Device device;
    auto fleet = installGenericFleet(device, 10);
    EXPECT_EQ(fleet.size(), 10u);
    EXPECT_EQ(device.apps().size(), 10u);
    device.start();
    device.runFor(1_min);
}

} // namespace
} // namespace leaseos::apps
