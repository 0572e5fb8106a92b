#ifndef LEASEOS_LEASE_PROXIES_BLUETOOTH_PROXY_H
#define LEASEOS_LEASE_PROXIES_BLUETOOTH_PROXY_H

/**
 * @file
 * Lease proxy for Bluetooth scans (Table 1 groups Bluetooth with the
 * sensors: a subscription whose utilisation is judged by the bound
 * Activity, with UI evidence as the generic utility).
 */

#include "lease/lease_proxy.h"
#include "os/activity_manager_service.h"
#include "os/bluetooth_service.h"

namespace leaseos::lease {

/** Service counters a bluetooth lease term is measured against. */
struct BluetoothSnapshot {
    double scanSeconds = 0.0;
    double activitySeconds = 0.0;
    std::uint64_t uiUpdates = 0;
    std::uint64_t interactions = 0;
};

/**
 * Bluetooth scan lease proxy.
 */
class BluetoothLeaseProxy : public SnapshotLeaseProxy<BluetoothSnapshot>
{
  public:
    BluetoothLeaseProxy(os::BluetoothService &bt,
                        os::ActivityManagerService &am);

    void onExpire(const Lease &lease) override;
    void onRenew(const Lease &lease) override;
    bool resourceHeld(const Lease &lease) override;

  private:
    BluetoothSnapshot snapshot(const Lease &lease) override;
    LeaseStat termStat(const Lease &lease, const BluetoothSnapshot &start,
                       const BluetoothSnapshot &now) override;

    os::BluetoothService &bt_;
    os::ActivityManagerService &am_;
};

} // namespace leaseos::lease

#endif // LEASEOS_LEASE_PROXIES_BLUETOOTH_PROXY_H
