#ifndef LEASEOS_MITIGATION_THROTTLE_H
#define LEASEOS_MITIGATION_THROTTLE_H

/**
 * @file
 * Pure one-shot, time-based throttling — "essentially leases with only a
 * single term" (§7.4). After a fixed holding time every resource of a
 * background app is revoked permanently. This is the strawman the
 * usability experiment runs RunKeeper/Spotify/Haven against: it cannot
 * tell fitness tracking from a leaked wakelock, so it breaks both.
 */

#include <set>

#include "os/resource_listener.h"
#include "os/resource_service.h"
#include "os/system_server.h"
#include "sim/simulator.h"

namespace leaseos::mitigation {

/**
 * Single-term time-based throttler.
 */
class OneShotThrottler
{
  public:
    /** Holding time after which a background object is revoked. */
    static constexpr sim::Time kHoldLimit = sim::Time::fromMinutes(5.0);

    OneShotThrottler(sim::Simulator &sim, os::SystemServer &server);

    void start();

  private:
    /** Listener adapter: one per service, so a token knows its service. */
    class Watcher : public os::ResourceListener
    {
      public:
        Watcher(OneShotThrottler &owner, os::ResourceServiceBase &service)
            : owner_(owner), service_(service)
        {
        }

        void listen() { service_.addListener(this); }

        void
        onAcquired(os::TokenId token, Uid uid) override
        {
            (void)uid;
            owner_.noteAcquired(token, service_);
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
        OneShotThrottler &owner_;
        os::ResourceServiceBase &service_;
    };

    void noteAcquired(os::TokenId token, os::ResourceServiceBase &service);
    void noteReleased(os::TokenId token);

    sim::Simulator &sim_;
    os::SystemServer &server_;
    bool started_ = false;

    Watcher powerWatcher_{*this, server_.powerManager()};
    Watcher gpsWatcher_{*this, server_.locationManager()};
    Watcher sensorWatcher_{*this, server_.sensorManager()};
    Watcher wifiWatcher_{*this, server_.wifiManager()};

    /** Tokens held since their last acquire. */
    std::set<os::TokenId> tracked_;
};

} // namespace leaseos::mitigation

#endif // LEASEOS_MITIGATION_THROTTLE_H
