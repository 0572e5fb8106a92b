#ifndef LEASEOS_LEASE_PROXIES_WIFI_PROXY_H
#define LEASEOS_LEASE_PROXIES_WIFI_PROXY_H

/**
 * @file
 * Lease proxy for Wi-Fi high-performance locks.
 *
 * Usage = actual Wi-Fi transfer time: a lock held with an idle radio (the
 * ConnectBot case, "only lock Wi-Fi if our active network is Wi-Fi") is
 * Long-Holding.
 */

#include "lease/lease_proxy.h"
#include "os/activity_manager_service.h"
#include "os/wifi_manager_service.h"
#include "power/radio_model.h"

namespace leaseos::lease {

/** Service counters a Wi-Fi lease term is measured against. */
struct WifiSnapshot {
    double enabledSeconds = 0.0;
    double activeSeconds = 0.0;
    std::uint64_t uiUpdates = 0;
    std::uint64_t interactions = 0;
    std::uint64_t acquires = 0;
};

/**
 * Wi-Fi lock lease proxy.
 */
class WifiLeaseProxy : public SnapshotLeaseProxy<WifiSnapshot>
{
  public:
    WifiLeaseProxy(os::WifiManagerService &wms, power::RadioModel &radio,
                   os::ActivityManagerService &am);

    void onExpire(const Lease &lease) override;
    void onRenew(const Lease &lease) override;
    bool resourceHeld(const Lease &lease) override;

  private:
    WifiSnapshot snapshot(const Lease &lease) override;
    LeaseStat termStat(const Lease &lease, const WifiSnapshot &start,
                       const WifiSnapshot &now) override;

    os::WifiManagerService &wms_;
    power::RadioModel &radio_;
    os::ActivityManagerService &am_;
};

} // namespace leaseos::lease

#endif // LEASEOS_LEASE_PROXIES_WIFI_PROXY_H
