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
};

TEST_F(SensorManagerTest, RegistrationActivatesSensorAndDelivers)
{
    TokenId t = sms.registerListener(kApp, power::SensorType::Orientation,
                                     1_s, &listener);
    EXPECT_TRUE(sms.isActive(t));
    EXPECT_TRUE(sensors.active(power::SensorType::Orientation));
    sim.runFor(10_s);
    EXPECT_EQ(listener.events, 10);
    EXPECT_EQ(sms.eventCount(kApp), 10u);
    sms.unregisterListener(t);
    EXPECT_FALSE(sensors.active(power::SensorType::Orientation));
}

TEST_F(SensorManagerTest, SuspendSilencesCallbacksAndPower)
{
    TokenId t = sms.registerListener(kApp, power::SensorType::Orientation,
                                     1_s, &listener);
    sim.runFor(5_s);
    sms.suspend(t);
    EXPECT_FALSE(sensors.active(power::SensorType::Orientation));
    int events = listener.events;
    sim.runFor(10_s);
    EXPECT_EQ(listener.events, events);
    sms.restore(t);
    sim.runFor(5_s);
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
    EXPECT_FALSE(sensors.active(power::SensorType::Light));
    EXPECT_EQ(sms.ownerOf(t), kInvalidUid);
}

// ---- WifiManagerService -----------------------------------------------------

struct WifiManagerTest : OsFixture {
    WifiManagerService &wms = server.wifiManager();
};

TEST_F(WifiManagerTest, LockLifecycleAndPower)
{
    TokenId t = wms.createWifiLock(kApp, "hiperf");
    wms.acquire(t);
    EXPECT_TRUE(wms.isHeld(t));
    sim.runFor(100_s);
    wms.release(t);
    EXPECT_NEAR(wms.heldSeconds(kApp), 100.0, 0.1);
    acc.sync();
    EXPECT_NEAR(acc.uidEnergyMj(kApp), profile.wifiLockMw * 100.0, 2.0);
}

TEST_F(WifiManagerTest, SuspendDropsRadioHold)
{
    TokenId t = wms.createWifiLock(kApp, "x");
    wms.acquire(t);
    sim.runFor(10_s);
    wms.suspend(t);
    EXPECT_TRUE(wms.isHeld(t));
    EXPECT_FALSE(wms.isEnabled(t));
    sim.runFor(10_s);
    EXPECT_NEAR(wms.enabledSeconds(kApp), 10.0, 0.1);
    EXPECT_NEAR(wms.heldSeconds(kApp), 20.0, 0.1);
    wms.restore(t);
    EXPECT_TRUE(wms.isEnabled(t));
}

TEST_F(WifiManagerTest, FilterGatesByUid)
{
    TokenId t = wms.createWifiLock(kApp, "x");
    wms.acquire(t);
    wms.setGlobalFilter([this](Uid u) { return u != kApp; });
    EXPECT_FALSE(wms.isEnabled(t));
    wms.setGlobalFilter(nullptr);
    EXPECT_TRUE(wms.isEnabled(t));
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
    EXPECT_NEAR(dms.forcedOnSeconds(), 10.0, 0.1);
    dms.setForcedOwners({});
    EXPECT_FALSE(dms.screenOn());
}

TEST_F(DisplayManagerTest, UserOnScreenIsNotForced)
{
    dms.userSetScreen(true);
    dms.setForcedOwners({kApp});
    sim.runFor(10_s);
    EXPECT_DOUBLE_EQ(dms.forcedOnSeconds(), 0.0);
    // System pays for the user-on screen.
    acc.sync();
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
    ams.setAlarm(kApp, 10_s, true, [&] {
        ran = true;
        was_awake = cpu.isAwake();
    });
    EXPECT_FALSE(cpu.isAwake());
    sim.runFor(15_s);
    EXPECT_TRUE(ran);
    EXPECT_TRUE(was_awake);
    EXPECT_EQ(ams.firedCount(), 1u);
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

TEST_F(AlarmManagerTest, CancelPreventsFiring)
{
    bool ran = false;
    TokenId t = ams.setAlarm(kApp, 10_s, true, [&] { ran = true; });
    ams.cancelAlarm(t);
    sim.runFor(20_s);
    EXPECT_FALSE(ran);
    EXPECT_EQ(ams.pendingCount(), 0u);
}

TEST_F(AlarmManagerTest, GateDefersAndRetries)
{
    bool ran = false;
    bool allow = false;
    ams.setGate([&](Uid) { return allow; });
    ams.setAlarm(kApp, 10_s, true, [&] { ran = true; });
    sim.runFor(1_min);
    EXPECT_FALSE(ran);
    EXPECT_GE(ams.deferredCount(), 1u);
    allow = true;
    sim.runFor(AlarmManagerService::kDeferRetry + 1_s);
    EXPECT_TRUE(ran);
}

// ---- ActivityManagerService -----------------------------------------------

struct ActivityManagerTest : OsFixture {
    ActivityManagerService &am = server.activityManager();
};

TEST_F(ActivityManagerTest, AppRegistry)
{
    am.registerApp(kApp, "K-9 Mail");
    am.registerApp(kApp2, "Kontalk");
    EXPECT_TRUE(am.isRegistered(kApp));
    EXPECT_EQ(am.appName(kApp), "K-9 Mail");
    EXPECT_EQ(am.appName(12345), "<unknown>");
    EXPECT_EQ(am.apps().size(), 2u);
}

TEST_F(ActivityManagerTest, ForegroundTracking)
{
    am.registerApp(kApp, "A");
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
    am.registerApp(kApp, "A");
    am.activityStarted(kApp);
    sim.runFor(30_s);
    am.activityStopped(kApp);
    sim.runFor(30_s);
    EXPECT_NEAR(am.activityAliveSeconds(kApp), 30.0, 0.1);
    EXPECT_FALSE(am.hasLiveActivity(kApp));
}

TEST_F(ActivityManagerTest, NestedActivitiesCount)
{
    am.registerApp(kApp, "A");
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
    EXPECT_EQ(eh.totalCount(kApp), 3u);
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
        std::uint64_t ipcs = service.ipcCount();

        TokenId t = c.create(server);
        EXPECT_EQ(service.ipcCount(), ++ipcs);
        if (c.acquire) {
            EXPECT_EQ(listener.events,
                      (std::vector<std::string>{"created"}));
            c.acquire(server, t);
            EXPECT_EQ(service.ipcCount(), ++ipcs);
        }
        EXPECT_TRUE(service.isLive(t));
        c.release(server, t);
        EXPECT_EQ(service.ipcCount(), ++ipcs);
        EXPECT_FALSE(service.isLive(t));

        // Releasing again is a no-op: no IPC, no CPU time, no listener.
        const double cpuSeconds = settledCpuSeconds(kApp);
        c.release(server, t);
        EXPECT_EQ(service.ipcCount(), ipcs);
        EXPECT_EQ(settledCpuSeconds(kApp), cpuSeconds);

        c.destroy(server, t);
        EXPECT_EQ(service.ipcCount(), ipcs);
        EXPECT_EQ(listener.events,
                  (std::vector<std::string>{"created", "acquired",
                                            "released", "destroyed"}));
    }
}

} // namespace
} // namespace leaseos::os
