#include "mitigation/defdroid.h"

namespace leaseos::mitigation {

DefDroidController::DefDroidController(sim::Simulator &sim,
                                       os::SystemServer &server,
                                       DefDroidConfig config)
    : sim_(sim), server_(server), config_(config)
{
}

DefDroidController::~DefDroidController() = default;

void
DefDroidController::start()
{
    if (started_) return;
    started_ = true;
    wakelockWatcher_.listen();
    gpsWatcher_.listen();
    sensorWatcher_.listen();
    wifiWatcher_.listen();
    pollTick_ = sim_.schedulePeriodicScoped(config_.pollInterval,
                                            [this] { poll(); });
}

void
DefDroidController::noteAcquired(os::TokenId token, Uid uid, Kind kind,
                                 os::ResourceServiceBase &service)
{
    // Wakelocks arrive via one watcher; split by level here.
    if (kind == Kind::Wakelock &&
        server_.powerManager().typeOf(token) == os::WakeLockType::Full) {
        kind = Kind::Screen;
    }
    auto it = tracked_.find(token);
    if (it != tracked_.end()) {
        // Re-acquire: keep the original heldSince (continuous pressure).
        return;
    }
    tracked_[token] = Tracked{uid, kind, &service, sim_.now(), false};

    if (kind == Kind::Gps) {
        GpsPressure &pressure = gpsPressure_[uid];
        if (!pressure.anyActive &&
            (pressure.lastRelease == sim::Time::zero() ||
             sim_.now() - pressure.lastRelease > config_.gpsChurnGap)) {
            pressure.holdStart = sim_.now();
        }
        pressure.anyActive = true;
        if (sim_.now() < pressure.backoffUntil) {
            // Still backing off this uid's GPS: new requests are
            // immediately suppressed.
            tracked_[token].throttled = true;
            service.suspend(token);
            sim::Time remaining = pressure.backoffUntil - sim_.now();
            sim_.schedule(remaining, [this, token, &service] {
                unthrottle(token, Kind::Gps, service);
            });
        }
    }
}

void
DefDroidController::noteReleased(os::TokenId token)
{
    auto it = tracked_.find(token);
    if (it != tracked_.end() && it->second.kind == Kind::Gps) {
        Uid uid = it->second.uid;
        bool any_other = false;
        for (const auto &[other, rec] : tracked_) {
            if (other != token && rec.kind == Kind::Gps &&
                rec.uid == uid) {
                any_other = true;
                break;
            }
        }
        if (!any_other) {
            GpsPressure &pressure = gpsPressure_[uid];
            pressure.anyActive = false;
            pressure.lastRelease = sim_.now();
        }
    }
    tracked_.erase(token);
}

sim::Time
DefDroidController::holdLimit(Kind kind) const
{
    switch (kind) {
      case Kind::Wakelock: return config_.wakelockHoldLimit;
      case Kind::Screen: return config_.screenHoldLimit;
      case Kind::Gps: return config_.gpsHoldLimit;
      case Kind::Sensor: return config_.sensorHoldLimit;
      case Kind::Wifi: return config_.wifiHoldLimit;
    }
    return config_.wakelockHoldLimit;
}

sim::Time
DefDroidController::backoff(Kind kind) const
{
    switch (kind) {
      case Kind::Wakelock: return config_.wakelockBackoff;
      case Kind::Screen: return config_.screenBackoff;
      case Kind::Gps: return config_.gpsBackoff;
      case Kind::Sensor: return config_.sensorBackoff;
      case Kind::Wifi: return config_.wifiBackoff;
    }
    return config_.wakelockBackoff;
}

void
DefDroidController::poll()
{
    for (auto &[token, tracked] : tracked_) {
        if (tracked.throttled) continue;
        if (config_.spareForeground &&
            server_.activityManager().isForeground(tracked.uid)) {
            continue;
        }
        // GPS uses the per-uid continuous-pressure clock so request
        // churn (new kernel object per attempt) cannot dodge the limit.
        sim::Time held_since = tracked.heldSince;
        if (tracked.kind == Kind::Gps) {
            auto it = gpsPressure_.find(tracked.uid);
            if (it != gpsPressure_.end())
                held_since = it->second.holdStart;
        }
        if (sim_.now() - held_since >= holdLimit(tracked.kind)) {
            if (tracked.kind == Kind::Gps) {
                gpsPressure_[tracked.uid].backoffUntil =
                    sim_.now() + backoff(Kind::Gps);
            }
            throttle(token, tracked);
        }
    }
}

void
DefDroidController::throttle(os::TokenId token, Tracked &tracked)
{
    tracked.throttled = true;
    tracked.service->suspend(token);
    Kind kind = tracked.kind;
    os::ResourceServiceBase *service = tracked.service;
    sim_.schedule(backoff(kind), [this, token, kind, service] {
        unthrottle(token, kind, *service);
    });
}

void
DefDroidController::unthrottle(os::TokenId token, Kind kind,
                               os::ResourceServiceBase &service)
{
    service.restore(token);
    auto it = tracked_.find(token);
    if (it != tracked_.end()) {
        // Still held: restart the holding clock for the next round.
        it->second.throttled = false;
        it->second.heldSince = sim_.now();
        if (kind == Kind::Gps)
            gpsPressure_[it->second.uid].holdStart = sim_.now();
    }
}

} // namespace leaseos::mitigation
