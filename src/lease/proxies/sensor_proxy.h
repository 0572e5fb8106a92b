#ifndef LEASEOS_LEASE_PROXIES_SENSOR_PROXY_H
#define LEASEOS_LEASE_PROXIES_SENSOR_PROXY_H

/**
 * @file
 * Lease proxy for sensor listener registrations.
 *
 * Usage follows the §3.3 bound-Activity metric; the generic utility is
 * driven by UI evidence, which is where app-provided custom counters
 * (Fig. 6, TapAndTurn) matter most.
 */

#include "lease/lease_proxy.h"
#include "os/activity_manager_service.h"
#include "os/sensor_manager_service.h"

namespace leaseos::lease {

/** Service counters a sensor lease term is measured against. */
struct SensorSnapshot {
    double registeredSeconds = 0.0;
    double activitySeconds = 0.0;
    std::uint64_t uiUpdates = 0;
    std::uint64_t interactions = 0;
};

/**
 * Sensor registration lease proxy.
 */
class SensorLeaseProxy : public SnapshotLeaseProxy<SensorSnapshot>
{
  public:
    SensorLeaseProxy(os::SensorManagerService &sms,
                     os::ActivityManagerService &am);

    void onExpire(const Lease &lease) override;
    void onRenew(const Lease &lease) override;
    bool resourceHeld(const Lease &lease) override;

  private:
    SensorSnapshot snapshot(const Lease &lease) override;
    LeaseStat termStat(const Lease &lease, const SensorSnapshot &start,
                       const SensorSnapshot &now) override;

    os::SensorManagerService &sms_;
    os::ActivityManagerService &am_;
};

} // namespace leaseos::lease

#endif // LEASEOS_LEASE_PROXIES_SENSOR_PROXY_H
