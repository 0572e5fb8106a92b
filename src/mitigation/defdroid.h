#ifndef LEASEOS_MITIGATION_DEFDROID_H
#define LEASEOS_MITIGATION_DEFDROID_H

/**
 * @file
 * DefDroid-style throttling baseline (§7.3's second comparison point).
 *
 * DefDroid applies fine-grained per-resource throttling to *background*
 * apps whose resources are held longer than a threshold: the resource is
 * forcibly released and re-allowed after a back-off. Because the policy
 * only looks at holding time — not at whether the holding is useful — the
 * thresholds have to stay conservative, which is exactly why it trails
 * LeaseOS in Table 5 and disrupts legitimate background apps in §7.4.
 */

#include <map>

#include "os/resource_listener.h"
#include "os/resource_service.h"
#include "os/system_server.h"
#include "sim/simulator.h"

namespace leaseos::mitigation {

/** Per-resource throttle thresholds (holding limits + back-offs). */
struct DefDroidConfig {
    sim::Time pollInterval = sim::Time::fromSeconds(10.0);

    sim::Time wakelockHoldLimit = sim::Time::fromSeconds(60.0);
    sim::Time wakelockBackoff = sim::Time::fromSeconds(180.0);

    sim::Time screenHoldLimit = sim::Time::fromSeconds(60.0);
    sim::Time screenBackoff = sim::Time::fromSeconds(240.0);

    sim::Time gpsHoldLimit = sim::Time::fromSeconds(90.0);
    sim::Time gpsBackoff = sim::Time::fromSeconds(60.0);

    /**
     * Gaps shorter than this between one GPS request ending and the next
     * starting count as continuous pressure from the uid — the
     * BetterWeather re-request churn must not reset the holding clock.
     */
    sim::Time gpsChurnGap = sim::Time::fromSeconds(45.0);

    sim::Time sensorHoldLimit = sim::Time::fromSeconds(60.0);
    sim::Time sensorBackoff = sim::Time::fromSeconds(120.0);

    sim::Time wifiHoldLimit = sim::Time::fromSeconds(60.0);
    sim::Time wifiBackoff = sim::Time::fromSeconds(240.0);

    /** Foreground apps are never throttled. */
    bool spareForeground = true;
};

/**
 * Holding-time throttler over all resource services.
 */
class DefDroidController
{
  public:
    DefDroidController(sim::Simulator &sim, os::SystemServer &server,
                       DefDroidConfig config = {});
    ~DefDroidController();

    void start();

  private:
    /** Which service a tracked token belongs to. */
    enum class Kind { Wakelock, Screen, Gps, Sensor, Wifi };

    struct Tracked {
        Uid uid;
        Kind kind;
        /** The service the token lives in (suspended on throttle). */
        os::ResourceServiceBase *service;
        sim::Time heldSince;
        bool throttled = false;
    };

    /** Listener adapter: one per service, tagging the token kind. */
    class Watcher : public os::ResourceListener
    {
      public:
        Watcher(DefDroidController &owner, os::ResourceServiceBase &service,
                Kind kind)
            : owner_(owner), service_(service), kind_(kind)
        {
        }

        void listen() { service_.addListener(this); }

        void
        onAcquired(os::TokenId token, Uid uid) override
        {
            owner_.noteAcquired(token, uid, kind_, service_);
        }
        void
        onReleased(os::TokenId token, Uid uid) override
        {
            (void)uid;
            owner_.noteReleased(token);
        }
        void
        onDestroyed(os::TokenId token, Uid uid) override
        {
            (void)uid;
            owner_.noteReleased(token);
        }

      private:
        DefDroidController &owner_;
        os::ResourceServiceBase &service_;
        Kind kind_;
    };

    void noteAcquired(os::TokenId token, Uid uid, Kind kind,
                      os::ResourceServiceBase &service);
    void noteReleased(os::TokenId token);
    void poll();
    void throttle(os::TokenId token, Tracked &tracked);
    void unthrottle(os::TokenId token, Kind kind,
                    os::ResourceServiceBase &service);
    sim::Time holdLimit(Kind kind) const;
    sim::Time backoff(Kind kind) const;

    sim::Simulator &sim_;
    os::SystemServer &server_;
    DefDroidConfig config_;
    bool started_ = false;
    /** Owns the poll loop: destroying the controller stops polling. */
    sim::PeriodicHandle pollTick_;

    Watcher wakelockWatcher_{*this, server_.powerManager(), Kind::Wakelock};
    Watcher gpsWatcher_{*this, server_.locationManager(), Kind::Gps};
    Watcher sensorWatcher_{*this, server_.sensorManager(), Kind::Sensor};
    Watcher wifiWatcher_{*this, server_.wifiManager(), Kind::Wifi};

    std::map<os::TokenId, Tracked> tracked_;

    /** Per-uid continuous GPS pressure tracking (request churn). */
    struct GpsPressure {
        sim::Time holdStart;
        sim::Time lastRelease;
        bool anyActive = false;
        sim::Time backoffUntil;
    };
    std::map<Uid, GpsPressure> gpsPressure_;
};

} // namespace leaseos::mitigation

#endif // LEASEOS_MITIGATION_DEFDROID_H
