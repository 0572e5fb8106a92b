#include "lease/proxies/bluetooth_proxy.h"

#include "lease/utility/generic_utility.h"

namespace leaseos::lease {

BluetoothLeaseProxy::BluetoothLeaseProxy(os::BluetoothService &bt,
                                         os::ActivityManagerService &am)
    : SnapshotLeaseProxy(ResourceType::Bluetooth), bt_(bt), am_(am)
{
    bt_.addListener(this);
}

void
BluetoothLeaseProxy::onExpire(const Lease &lease)
{
    bt_.suspend(lease.token);
}

void
BluetoothLeaseProxy::onRenew(const Lease &lease)
{
    bt_.restore(lease.token);
}

bool
BluetoothLeaseProxy::resourceHeld(const Lease &lease)
{
    return bt_.isActive(lease.token);
}

BluetoothSnapshot
BluetoothLeaseProxy::snapshot(const Lease &lease)
{
    BluetoothSnapshot s;
    s.scanSeconds = bt_.scanSeconds(lease.uid);
    s.activitySeconds = am_.activityAliveSeconds(lease.uid);
    s.uiUpdates = am_.uiUpdateCount(lease.uid);
    s.interactions = am_.userInteractionCount(lease.uid);
    return s;
}

LeaseStat
BluetoothLeaseProxy::termStat(const Lease &lease,
                              const BluetoothSnapshot &start,
                              const BluetoothSnapshot &now)
{
    LeaseStat stat;
    stat.termStart = lease.termStart;
    stat.termEnd = lease.termStart + lease.termLength;
    stat.holdingSeconds = now.scanSeconds - start.scanSeconds;
    stat.usageSeconds = now.activitySeconds - start.activitySeconds;
    stat.uiUpdates = now.uiUpdates - start.uiUpdates;
    stat.interactions = now.interactions - start.interactions;
    stat.heldAtTermEnd = bt_.isActive(lease.token);

    utility::Signals signals;
    signals.termSeconds = stat.termSeconds();
    signals.usageSeconds = stat.usageSeconds;
    signals.uiUpdates = stat.uiUpdates;
    signals.interactions = stat.interactions;
    stat.utilityScore =
        utility::genericScore(ResourceType::Bluetooth, signals);
    return stat;
}

} // namespace leaseos::lease
