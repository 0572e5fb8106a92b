/**
 * @file
 * Unit tests for sensor/wifi/display/alarm/activity services, the
 * exception note handler, and the kernel-object lifecycle the six
 * resource services share.
 */

#include <functional>
#include <string>
#include <vector>

#include "os_fixture.h"

namespace leaseos::os {
namespace {

using sim::operator""_s;
using sim::operator""_ms;
using sim::operator""_min;
using testing::OsFixture;

// ---- SensorManagerService ----------------------------------------------

struct CountingSensorListener : SensorEventListener {
    int events = 0;
    double last = 0.0;

    void
    onSensorEvent(power::SensorType, double value) override
    {
        ++events;
        last = value;
    }
};

struct SensorManagerTest : OsFixture {
    SensorManagerService &sms = server.sensorManager();
    CountingSensorListener listener;
    const power::ChannelId sensorsCh = acc.channelByName("sensors");

    /** Energy the sensor hub draws over the next @p span, in mJ. */
    double
    sensorMjOver(sim::Time span)
    {
        const double before = acc.channelEnergyMj(sensorsCh);
        sim.runFor(span);
        return acc.channelEnergyMj(sensorsCh) - before;
    }
};

TEST_F(SensorManagerTest, RegistrationActivatesSensorAndDelivers)
{
    TokenId t = sms.registerListener(kApp, power::SensorType::Orientation,
                                     1_s, &listener);
    EXPECT_TRUE(sms.isLive(t));
    EXPECT_NEAR(sensorMjOver(10_s), profile.orientationMw * 10.0, 1e-6);
    EXPECT_EQ(listener.events, 10);
    EXPECT_EQ(sms.eventCount(kApp), 10u);
    sms.unregisterListener(t);
    EXPECT_DOUBLE_EQ(sensorMjOver(10_s), 0.0);
}

TEST_F(SensorManagerTest, SuspendSilencesCallbacksAndPower)
{
    TokenId t = sms.registerListener(kApp, power::SensorType::Orientation,
                                     1_s, &listener);
    sim.runFor(5_s);
    sms.suspend(t);
    int events = listener.events;
    EXPECT_DOUBLE_EQ(sensorMjOver(10_s), 0.0);
    EXPECT_EQ(listener.events, events);
    sms.restore(t);
    EXPECT_NEAR(sensorMjOver(5_s), profile.orientationMw * 5.0, 1e-6);
    EXPECT_GT(listener.events, events);
}

TEST_F(SensorManagerTest, ReadingFnFeedsValues)
{
    sms.setReadingFn(
        [](power::SensorType, sim::Time t) { return t.seconds(); });
    sms.registerListener(kApp, power::SensorType::Accelerometer, 1_s,
                         &listener);
    sim.runFor(3_s);
    EXPECT_NEAR(listener.last, 3.0, 0.01);
}

TEST_F(SensorManagerTest, RegisteredSecondsAccrue)
{
    TokenId t = sms.registerListener(kApp, power::SensorType::Gyroscope,
                                     1_s, &listener);
    sim.runFor(30_s);
    sms.unregisterListener(t);
    sim.runFor(30_s);
    EXPECT_NEAR(sms.registeredSeconds(kApp), 30.0, 0.1);
}

TEST_F(SensorManagerTest, DestroyReleasesHardware)
{
    TokenId t = sms.registerListener(kApp, power::SensorType::Light, 1_s,
                                     &listener);
    sms.destroy(t);
    EXPECT_FALSE(sms.records().contains(t));
    EXPECT_DOUBLE_EQ(sensorMjOver(10_s), 0.0);
}

TEST_F(SensorManagerTest, RegistrationsOfOneUidShareOneDraw)
{
    // A holds two gyroscope registrations and B one: each uid draws half,
    // and A keeps its half while either of its registrations is enabled.
    const auto gyro = power::SensorType::Gyroscope;
    const power::ChannelId ch = acc.channelByName("sensors");
    auto expectSplit = [&](double shareA, double shareB) {
        const double a = acc.uidChannelEnergyMj(kApp, ch);
        const double b = acc.uidChannelEnergyMj(kApp2, ch);
        sim.runFor(10_s);
        const double mj = profile.gyroscopeMw * 10.0;
        EXPECT_NEAR(acc.uidChannelEnergyMj(kApp, ch) - a, shareA * mj, 1e-6);
        EXPECT_NEAR(acc.uidChannelEnergyMj(kApp2, ch) - b, shareB * mj,
                    1e-6);
    };
    TokenId a1 = sms.registerListener(kApp, gyro, 1_s, &listener);
    TokenId a2 = sms.registerListener(kApp, gyro, 1_s, &listener);
    sms.registerListener(kApp2, gyro, 1_s, &listener);
    expectSplit(0.5, 0.5);

    sms.suspend(a1);
    expectSplit(0.5, 0.5);
    sms.suspend(a2);
    expectSplit(0.0, 1.0);
    sms.restore(a1); // A is back in the split
    expectSplit(0.5, 0.5);
    sms.unregisterListener(a2);
    expectSplit(0.5, 0.5);
    sms.unregisterListener(a1);
    expectSplit(0.0, 1.0);
}

// ---- WifiManagerService -----------------------------------------------------

struct WifiManagerTest : OsFixture {
    WifiManagerService &wms = server.wifiManager();
};

TEST_F(WifiManagerTest, LockLifecycleAndPower)
{
    TokenId t = wms.createWifiLock(kApp, "hiperf");
    wms.acquire(t);
    EXPECT_TRUE(wms.isLive(t));
    sim.runFor(100_s);
    wms.release(t);
    EXPECT_NEAR(wms.heldSeconds(kApp), 100.0, 0.1);
    EXPECT_NEAR(acc.uidEnergyMj(kApp), profile.wifiLockMw * 100.0, 2.0);
}

TEST_F(WifiManagerTest, SuspendDropsRadioHold)
{
    TokenId t = wms.createWifiLock(kApp, "x");
    wms.acquire(t);
    sim.runFor(10_s);
    wms.suspend(t);
    EXPECT_TRUE(wms.isLive(t));
    EXPECT_FALSE(wms.records().at(t).enabled);
    sim.runFor(10_s);
    EXPECT_NEAR(wms.enabledSeconds(kApp), 10.0, 0.1);
    EXPECT_NEAR(wms.heldSeconds(kApp), 20.0, 0.1);
    wms.restore(t);
    EXPECT_TRUE(wms.records().at(t).enabled);
}

TEST_F(WifiManagerTest, FilterGatesByUid)
{
    TokenId t = wms.createWifiLock(kApp, "x");
    wms.acquire(t);
    wms.setGlobalFilter([this](Uid u) { return u != kApp; });
    EXPECT_FALSE(wms.records().at(t).enabled);
    wms.setGlobalFilter(nullptr);
    EXPECT_TRUE(wms.records().at(t).enabled);
}

// ---- DisplayManagerService -------------------------------------------------

struct DisplayManagerTest : OsFixture {
    DisplayManagerService &dms = server.displayManager();
};

TEST_F(DisplayManagerTest, UserControlsScreen)
{
    EXPECT_FALSE(dms.screenOn());
    dms.userSetScreen(true);
    EXPECT_TRUE(dms.screenOn());
    EXPECT_TRUE(cpu.isAwake());
    dms.userSetScreen(false);
    EXPECT_FALSE(dms.screenOn());
}

TEST_F(DisplayManagerTest, ForcedOwnersKeepScreenOn)
{
    dms.setForcedOwners({kApp});
    EXPECT_TRUE(dms.screenOn());
    sim.runFor(10_s);
    dms.setForcedOwners({});
    EXPECT_FALSE(dms.screenOn());
    sim.runFor(10_s);
    // The forcing app pays for the 10 s it kept the panel lit.
    const power::ChannelId panel = acc.channelByName("screen");
    EXPECT_NEAR(acc.uidChannelEnergyMj(kApp, panel),
                (profile.screenBaseMw +
                 power::ScreenModel::kBrightness * profile.screenFullMw) *
                    10.0,
                1e-6);
}

TEST_F(DisplayManagerTest, UserOnScreenIsNotForced)
{
    dms.userSetScreen(true);
    dms.setForcedOwners({kApp});
    sim.runFor(10_s);
    // System pays for the user-on screen.
    EXPECT_DOUBLE_EQ(acc.uidEnergyMj(kApp), 0.0);
}

TEST_F(DisplayManagerTest, StateListenerFires)
{
    std::vector<bool> states;
    dms.addStateListener([&](bool on) { states.push_back(on); });
    dms.userSetScreen(true);
    dms.userSetScreen(false);
    EXPECT_EQ(states, (std::vector<bool>{true, false}));
}

// ---- AlarmManagerService ----------------------------------------------------

struct AlarmManagerTest : OsFixture {
    AlarmManagerService &ams = server.alarmManager();
};

TEST_F(AlarmManagerTest, WakeupAlarmWakesSleepingCpu)
{
    bool ran = false;
    bool was_awake = false;
    sim::Time ranAt;
    ams.setAlarm(kApp, 10_s, true, [&] {
        ran = true;
        was_awake = cpu.isAwake();
        ranAt = sim.now();
    });
    EXPECT_FALSE(cpu.isAwake());
    sim.runFor(15_s);
    EXPECT_TRUE(ran);
    EXPECT_TRUE(was_awake);
    EXPECT_EQ(ranAt, 10_s);
}

TEST_F(AlarmManagerTest, NonWakeupAlarmWaitsForWake)
{
    bool ran = false;
    ams.setAlarm(kApp, 10_s, false, [&] { ran = true; });
    sim.runFor(20_s);
    EXPECT_FALSE(ran); // CPU asleep: waits
    server.displayManager().userSetScreen(true);
    sim.runFor(1_s);
    EXPECT_TRUE(ran);
}

TEST_F(AlarmManagerTest, GateDefersAndRetries)
{
    bool ran = false;
    bool allow = false;
    sim::Time ranAt;
    ams.setGate([&](Uid) { return allow; });
    ams.setAlarm(kApp, 10_s, true, [&] {
        ran = true;
        ranAt = sim.now();
    });
    sim.runFor(1_min);
    EXPECT_FALSE(ran);
    allow = true;
    sim.runFor(AlarmManagerService::kDeferRetry + 1_s);
    EXPECT_TRUE(ran);
    // Gated at 10 s, the alarm runs at its first retry after the gate
    // opened.
    EXPECT_EQ(ranAt, 10_s + AlarmManagerService::kDeferRetry);
}

// ---- ActivityManagerService -----------------------------------------------

struct ActivityManagerTest : OsFixture {
    ActivityManagerService &am = server.activityManager();
};

TEST_F(ActivityManagerTest, ForegroundTracking)
{
    Uid seen = kInvalidUid;
    am.addForegroundListener([&](Uid u) { seen = u; });
    am.setForeground(kApp);
    EXPECT_TRUE(am.isForeground(kApp));
    EXPECT_EQ(seen, kApp);
    am.setForeground(kInvalidUid);
    EXPECT_FALSE(am.isForeground(kApp));
}

TEST_F(ActivityManagerTest, ActivityLifetimeAccrues)
{
    am.activityStarted(kApp);
    sim.runFor(30_s);
    am.activityStopped(kApp);
    sim.runFor(30_s);
    EXPECT_NEAR(am.activityAliveSeconds(kApp), 30.0, 0.1);
    EXPECT_FALSE(am.hasLiveActivity(kApp));
}

TEST_F(ActivityManagerTest, NestedActivitiesCount)
{
    am.activityStarted(kApp);
    am.activityStarted(kApp);
    am.activityStopped(kApp);
    EXPECT_TRUE(am.hasLiveActivity(kApp));
    am.activityStopped(kApp);
    EXPECT_FALSE(am.hasLiveActivity(kApp));
    am.activityStopped(kApp); // extra stop is safe
}

TEST_F(ActivityManagerTest, UiTelemetryCounters)
{
    am.noteUiUpdate(kApp);
    am.noteUiUpdate(kApp);
    am.noteUserInteraction(kApp);
    EXPECT_EQ(am.uiUpdateCount(kApp), 2u);
    EXPECT_EQ(am.userInteractionCount(kApp), 1u);
    EXPECT_EQ(am.uiUpdateCount(kApp2), 0u);
}

// ---- ExceptionNoteHandler ----------------------------------------------

TEST_F(ActivityManagerTest, ExceptionCountsBySeverity)
{
    auto &eh = server.exceptionHandler();
    eh.noteException(kApp, ExceptionSeverity::Severe);
    eh.noteException(kApp, ExceptionSeverity::Minor);
    eh.noteException(kApp, ExceptionSeverity::Severe);
    EXPECT_EQ(eh.severeCount(kApp), 2u);
    EXPECT_EQ(eh.severeCount(kApp2), 0u);
}

// ---- Kernel-object lifecycle (all six resource services) ---------------

struct RecordingListener : ResourceListener {
    std::vector<std::string> events;

    void
    onCreated(TokenId, Uid) override
    {
        events.push_back("created");
    }
    void
    onAcquired(TokenId, Uid) override
    {
        events.push_back("acquired");
    }
    void
    onReleased(TokenId, Uid) override
    {
        events.push_back("released");
    }
    void
    onDestroyed(TokenId, Uid) override
    {
        events.push_back("destroyed");
    }
};

/** One resource service's four lifecycle calls, by their Android names. */
struct LifecycleCase {
    const char *service;
    std::function<ResourceServiceBase &(SystemServer &)> get;
    std::function<TokenId(SystemServer &)> create;
    /** Null where creating the object also acquires it (subscriptions). */
    std::function<void(SystemServer &, TokenId)> acquire;
    std::function<void(SystemServer &, TokenId)> release;
    std::function<void(SystemServer &, TokenId)> destroy;
};

struct LifecycleTest : OsFixture {
    /** Run the queued IPC work, then report @p uid's CPU seconds. */
    double
    settledCpuSeconds(Uid uid)
    {
        sim.runFor(1_s);
        return cpu.cpuSeconds(uid);
    }
};

TEST_F(LifecycleTest, EveryServiceFollowsOneLifecycle)
{
    const LifecycleCase cases[] = {
        {"power",
         [](SystemServer &s) -> ResourceServiceBase & {
             return s.powerManager();
         },
         [](SystemServer &s) {
             return s.powerManager().newWakeLock(
                 kApp, WakeLockType::Partial, "x");
         },
         [](SystemServer &s, TokenId t) { s.powerManager().acquire(t); },
         [](SystemServer &s, TokenId t) { s.powerManager().release(t); },
         [](SystemServer &s, TokenId t) { s.powerManager().destroy(t); }},
        {"wifi",
         [](SystemServer &s) -> ResourceServiceBase & {
             return s.wifiManager();
         },
         [](SystemServer &s) {
             return s.wifiManager().createWifiLock(kApp, "x");
         },
         [](SystemServer &s, TokenId t) { s.wifiManager().acquire(t); },
         [](SystemServer &s, TokenId t) { s.wifiManager().release(t); },
         [](SystemServer &s, TokenId t) { s.wifiManager().destroy(t); }},
        {"location",
         [](SystemServer &s) -> ResourceServiceBase & {
             return s.locationManager();
         },
         [](SystemServer &s) {
             return s.locationManager().requestLocationUpdates(kApp, 1_s,
                                                               nullptr);
         },
         nullptr,
         [](SystemServer &s, TokenId t) {
             s.locationManager().removeUpdates(t);
         },
         [](SystemServer &s, TokenId t) { s.locationManager().destroy(t); }},
        {"sensor",
         [](SystemServer &s) -> ResourceServiceBase & {
             return s.sensorManager();
         },
         [](SystemServer &s) {
             return s.sensorManager().registerListener(
                 kApp, power::SensorType::Accelerometer, 1_s, nullptr);
         },
         nullptr,
         [](SystemServer &s, TokenId t) {
             s.sensorManager().unregisterListener(t);
         },
         [](SystemServer &s, TokenId t) { s.sensorManager().destroy(t); }},
        {"audio",
         [](SystemServer &s) -> ResourceServiceBase & {
             return s.audioSessions();
         },
         [](SystemServer &s) { return s.audioSessions().openSession(kApp); },
         nullptr,
         [](SystemServer &s, TokenId t) { s.audioSessions().closeSession(t); },
         [](SystemServer &s, TokenId t) { s.audioSessions().destroy(t); }},
        {"bluetooth",
         [](SystemServer &s) -> ResourceServiceBase & {
             return s.bluetoothService();
         },
         [](SystemServer &s) {
             return s.bluetoothService().startScan(kApp, nullptr);
         },
         nullptr,
         [](SystemServer &s, TokenId t) { s.bluetoothService().stopScan(t); },
         [](SystemServer &s, TokenId t) {
             s.bluetoothService().destroy(t);
         }},
    };
    // Keep the CPU awake so every IPC's work shows up as app CPU time.
    server.displayManager().userSetScreen(true);
    // Added to every service in turn; the earlier ones must stay silent.
    RecordingListener listener;

    for (const LifecycleCase &c : cases) {
        SCOPED_TRACE(c.service);
        ResourceServiceBase &service = c.get(server);
        listener.events.clear();
        service.addListener(&listener);
        // Each IPC charges a burst of CPU work to the calling app; the
        // objects have no app callbacks, so nothing else runs as kApp.
        double cpuSeconds = settledCpuSeconds(kApp);
        const auto chargedIpc = [&] {
            const double before = cpuSeconds;
            cpuSeconds = settledCpuSeconds(kApp);
            return cpuSeconds > before;
        };

        TokenId t = c.create(server);
        EXPECT_TRUE(chargedIpc());
        if (c.acquire) {
            EXPECT_EQ(listener.events,
                      (std::vector<std::string>{"created"}));
            c.acquire(server, t);
            EXPECT_TRUE(chargedIpc());
        }
        EXPECT_TRUE(service.isLive(t));
        c.release(server, t);
        EXPECT_TRUE(chargedIpc());
        EXPECT_FALSE(service.isLive(t));
        // An object its create call also acquired (a subscription or an
        // audio session) is freed by its release; a lock outlives it.
        std::vector<std::string> released{"created", "acquired",
                                          "released"};
        if (!c.acquire) released.push_back("destroyed");
        EXPECT_EQ(listener.events, released);
        EXPECT_EQ(server.tokens().live(t), c.acquire != nullptr);

        // Releasing again is a no-op: no IPC, no CPU time, no listener.
        c.release(server, t);
        EXPECT_FALSE(chargedIpc());

        c.destroy(server, t);
        EXPECT_FALSE(chargedIpc());
        EXPECT_EQ(listener.events,
                  (std::vector<std::string>{"created", "acquired",
                                            "released", "destroyed"}));
    }
}

} // namespace
} // namespace leaseos::os
