/**
 * @file
 * Unit tests for AudioSessionService and the audio lease proxy,
 * including the §1 Facebook iOS audio-session leak end to end.
 */

#include "os_fixture.h"

#include "apps/buggy/facebook_audio.h"
#include "harness/device.h"
#include "lease/leaseos_runtime.h"

namespace leaseos::os {
namespace {

using sim::operator""_s;
using sim::operator""_min;
using testing::OsFixture;

struct AudioSessionTest : OsFixture {
    AudioSessionService &svc = server.audioSessions();
};

TEST_F(AudioSessionTest, OpenSessionKeepsCpuAwake)
{
    TokenId t = svc.openSession(kApp);
    EXPECT_TRUE(svc.isOpen(t));
    EXPECT_TRUE(cpu.isAwake());
    svc.closeSession(t);
    sim.runFor(1_s);
    EXPECT_FALSE(cpu.isAwake());
}

TEST_F(AudioSessionTest, PlaybackDrawsAudioPower)
{
    TokenId t = svc.openSession(kApp);
    svc.startPlayback(t);
    EXPECT_TRUE(svc.isPlaying(t));
    EXPECT_TRUE(audio.playing(kApp));
    sim.runFor(10_s);
    svc.stopPlayback(t);
    EXPECT_FALSE(audio.playing(kApp));
    EXPECT_NEAR(svc.playingSeconds(kApp), 10.0, 0.1);
    EXPECT_GT(acc.uidEnergyMj(kApp), profile.audioMw * 9.0);
}

TEST_F(AudioSessionTest, SilentOpenSessionStillCosts)
{
    TokenId t = svc.openSession(kApp);
    sim.runFor(60_s);
    // Pipeline + awake-idle CPU, all billed to the leaking app.
    double expected_min =
        (AudioSessionService::kPipelineMw + profile.cpuIdleAwakeMw) * 55.0;
    EXPECT_GT(acc.uidEnergyMj(kApp), expected_min);
    EXPECT_NEAR(svc.openSeconds(kApp), 60.0, 0.5);
    EXPECT_DOUBLE_EQ(svc.playingSeconds(kApp), 0.0);
    svc.closeSession(t);
}

TEST_F(AudioSessionTest, SuspendSilencesAndSleeps)
{
    TokenId t = svc.openSession(kApp);
    svc.startPlayback(t);
    svc.suspend(t);
    EXPECT_FALSE(svc.isEnabled(t));
    EXPECT_FALSE(audio.playing(kApp));
    sim.runFor(1_s);
    EXPECT_FALSE(cpu.isAwake());
    svc.restore(t);
    EXPECT_TRUE(svc.isEnabled(t));
    EXPECT_TRUE(audio.playing(kApp));
    EXPECT_TRUE(cpu.isAwake());
}

TEST_F(AudioSessionTest, FilterGatesByUid)
{
    TokenId t = svc.openSession(kApp);
    svc.setGlobalFilter([this](Uid u) { return u != kApp; });
    EXPECT_FALSE(svc.isEnabled(t));
    svc.setGlobalFilter(nullptr);
    EXPECT_TRUE(svc.isEnabled(t));
}

TEST_F(AudioSessionTest, DestroyCleansUp)
{
    TokenId t = svc.openSession(kApp);
    svc.destroy(t);
    EXPECT_FALSE(svc.isOpen(t));
    EXPECT_FALSE(svc.records().contains(t));
    sim.runFor(1_s);
    EXPECT_FALSE(cpu.isAwake());
}

// ---- The §1 motivating bug, end to end -----------------------------------

struct AudioLeakTest : ::testing::Test {
};

TEST_F(AudioLeakTest, LeakedSessionIsLongHoldingUnderLeaseOS)
{
    harness::DeviceConfig cfg;
    cfg.mode = harness::MitigationMode::LeaseOS;
    harness::Device device(cfg);
    auto &app = device.install<apps::FacebookAudio>();
    device.start();
    device.runFor(10_min);
    auto &mgr = device.leaseos()->manager();
    lease::LeaseId id = mgr.leaseIdForToken(app.session());
    ASSERT_NE(id, lease::kInvalidLeaseId);
    EXPECT_GT(mgr.lease(id)->deferrals, 0u);
    EXPECT_EQ(mgr.lastBehavior(id), lease::BehaviorType::LongHolding);
}

TEST_F(AudioLeakTest, LeaseOsRecoversMostOfTheLeak)
{
    auto run = [](harness::MitigationMode mode) {
        harness::DeviceConfig cfg;
        cfg.mode = mode;
        harness::Device device(cfg);
        auto &app = device.install<apps::FacebookAudio>();
        device.start();
        device.runFor(30_min);
        return device.appPowerMw(app.uid());
    };
    double vanilla = run(harness::MitigationMode::None);
    double leased = run(harness::MitigationMode::LeaseOS);
    EXPECT_GT(vanilla, 20.0);
    EXPECT_GT(1.0 - leased / vanilla, 0.8);
}

TEST_F(AudioLeakTest, ActivePlaybackIsNotDeferred)
{
    harness::DeviceConfig cfg;
    cfg.mode = harness::MitigationMode::LeaseOS;
    harness::Device device(cfg);
    auto &svc = device.server().audioSessions();
    TokenId t = svc.openSession(kFirstAppUid);
    svc.startPlayback(t);
    device.start();
    device.runFor(10_min);
    EXPECT_TRUE(svc.isEnabled(t));
    EXPECT_EQ(device.leaseos()->manager().totalDeferrals(), 0u);
}

} // namespace
} // namespace leaseos::os
