#include "lease/leaseos_runtime.h"

namespace leaseos::lease {

LeaseOsRuntime::LeaseOsRuntime(sim::Simulator &sim, power::CpuModel &cpu,
                               power::RadioModel &radio,
                               os::SystemServer &server, LeasePolicy policy)
    : manager_(sim, cpu, policy)
{
    os::PowerManagerService &pms = server.powerManager();
    os::LocationManagerService &lms = server.locationManager();
    os::SensorManagerService &sms = server.sensorManager();
    os::WifiManagerService &wms = server.wifiManager();
    os::AudioSessionService &audio = server.audioSessions();
    os::BluetoothService &bt = server.bluetoothService();
    os::ExceptionNoteHandler &exceptions = server.exceptionHandler();
    os::ActivityManagerService &am = server.activityManager();

    // Each reader calls its getters in a fixed order: some integrate time
    // up to now before answering.

    // Partial wakelocks (the CPU): holding = enabled lock time, usage =
    // the holder's CPU seconds, utility from severe exceptions and UI.
    // §8: under DVFS, utilisation is frequency-normalised busy time, which
    // measures work done rather than occupancy at a crawling clock.
    manager_.addProxy(
        ResourceType::Wakelock, pms,
        [&pms, &cpu, &exceptions, &am](const Lease &l) {
            TermCounters c;
            c.holdingSeconds = pms.enabledSecondsForToken(l.token);
            c.usageSeconds = cpu.dvfsEnabled()
                ? cpu.normalizedCpuSeconds(l.uid)
                : cpu.cpuSeconds(l.uid);
            c.exceptions = exceptions.severeCount(l.uid);
            c.uiUpdates = am.uiUpdateCount(l.uid);
            c.interactions = am.userInteractionCount(l.uid);
            c.acquires = pms.acquireCount(l.uid);
            return c;
        },
        [&pms](os::TokenId token) {
            return pms.typeOf(token) == os::WakeLockType::Partial;
        });

    // Full wakelocks keep the panel lit. Usage is the holder's live
    // Activity time: only a visible Activity benefits from a lit screen,
    // which flags background screen-holds as Long-Holding.
    manager_.addProxy(
        ResourceType::Screen, pms,
        [&pms, &am](const Lease &l) {
            TermCounters c;
            c.holdingSeconds = pms.enabledSecondsForToken(l.token);
            c.usageSeconds = am.activityAliveSeconds(l.uid);
            c.uiUpdates = am.uiUpdateCount(l.uid);
            c.interactions = am.userInteractionCount(l.uid);
            c.acquires = pms.acquireCount(l.uid);
            return c;
        },
        [&pms](os::TokenId token) {
            return pms.typeOf(token) == os::WakeLockType::Full;
        });

    // GPS requests can fail for long stretches, so requested and no-fix
    // time feed the FAB metric (Fig. 1). Holding is the outstanding
    // request; usage is §3.3's listener-bound-Activity time; distance
    // moved feeds the utility.
    manager_.addProxy(
        ResourceType::Gps, lms, [&lms, &am](const Lease &l) {
            TermCounters c;
            c.requestSeconds = lms.requestSeconds(l.uid);
            c.holdingSeconds = c.requestSeconds;
            c.failedRequestSeconds = lms.noFixSeconds(l.uid);
            c.usageSeconds = am.activityAliveSeconds(l.uid);
            c.distanceMeters = lms.distanceMeters(l.uid);
            c.uiUpdates = am.uiUpdateCount(l.uid);
            c.interactions = am.userInteractionCount(l.uid);
            c.acquires = lms.requestCount(l.uid);
            return c;
        });

    // Sensor listeners: usage is the bound-Activity time, utility comes
    // from UI evidence (where custom counters, Fig. 6, matter most).
    manager_.addProxy(
        ResourceType::Sensor, sms, [&sms, &am](const Lease &l) {
            TermCounters c;
            c.holdingSeconds = sms.registeredSeconds(l.uid);
            c.usageSeconds = am.activityAliveSeconds(l.uid);
            c.uiUpdates = am.uiUpdateCount(l.uid);
            c.interactions = am.userInteractionCount(l.uid);
            return c;
        });

    // Wi-Fi locks: usage is actual transfer time, so a lock held over an
    // idle radio (ConnectBot) is Long-Holding.
    manager_.addProxy(
        ResourceType::Wifi, wms, [&wms, &radio, &am](const Lease &l) {
            TermCounters c;
            c.holdingSeconds = wms.enabledSeconds(l.uid);
            c.usageSeconds = radio.wifiActiveSeconds(l.uid);
            c.uiUpdates = am.uiUpdateCount(l.uid);
            c.interactions = am.userInteractionCount(l.uid);
            c.acquires = wms.acquireCount(l.uid);
            return c;
        });

    // Audio sessions: usage is audible playback, so a session left open
    // in silence (the §1 Facebook bug) is Long-Holding.
    manager_.addProxy(
        ResourceType::Audio, audio, [&audio, &am](const Lease &l) {
            TermCounters c;
            c.holdingSeconds = audio.openSeconds(l.uid);
            c.usageSeconds = audio.playingSeconds(l.uid);
            c.uiUpdates = am.uiUpdateCount(l.uid);
            c.interactions = am.userInteractionCount(l.uid);
            return c;
        });

    // Bluetooth scans are judged like sensors (Table 1): bound-Activity
    // usage, UI evidence as utility.
    manager_.addProxy(
        ResourceType::Bluetooth, bt, [&bt, &am](const Lease &l) {
            TermCounters c;
            c.holdingSeconds = bt.scanSeconds(l.uid);
            c.usageSeconds = am.activityAliveSeconds(l.uid);
            c.uiUpdates = am.uiUpdateCount(l.uid);
            c.interactions = am.userInteractionCount(l.uid);
            return c;
        });
}

} // namespace leaseos::lease
