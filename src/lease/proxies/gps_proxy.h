#ifndef LEASEOS_LEASE_PROXIES_GPS_PROXY_H
#define LEASEOS_LEASE_PROXIES_GPS_PROXY_H

/**
 * @file
 * Lease proxy for GPS location requests.
 *
 * GPS is the one resource where asking can fail for long stretches, so
 * this proxy also records request/failed-request time for the FAB metric
 * (the BetterWeather pattern of Fig. 1). Usage follows §3.3's
 * listener-bound-Activity metric; the distance moved feeds the generic
 * utility.
 */

#include "lease/lease_proxy.h"
#include "os/activity_manager_service.h"
#include "os/location_manager_service.h"

namespace leaseos::lease {

/** Service counters a GPS lease term is measured against. */
struct GpsSnapshot {
    double requestSeconds = 0.0;
    double noFixSeconds = 0.0;
    double activitySeconds = 0.0;
    double distanceMeters = 0.0;
    std::uint64_t uiUpdates = 0;
    std::uint64_t interactions = 0;
    std::uint64_t requests = 0;
};

/**
 * GPS request lease proxy.
 */
class GpsLeaseProxy : public SnapshotLeaseProxy<GpsSnapshot>
{
  public:
    GpsLeaseProxy(os::LocationManagerService &lms,
                  os::ActivityManagerService &am);

    void onExpire(const Lease &lease) override;
    void onRenew(const Lease &lease) override;
    bool resourceHeld(const Lease &lease) override;

  private:
    GpsSnapshot snapshot(const Lease &lease) override;
    LeaseStat termStat(const Lease &lease, const GpsSnapshot &start,
                       const GpsSnapshot &now) override;

    os::LocationManagerService &lms_;
    os::ActivityManagerService &am_;
};

} // namespace leaseos::lease

#endif // LEASEOS_LEASE_PROXIES_GPS_PROXY_H
