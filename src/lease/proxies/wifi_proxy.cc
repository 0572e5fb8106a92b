#include "lease/proxies/wifi_proxy.h"

#include "lease/utility/generic_utility.h"

namespace leaseos::lease {

WifiLeaseProxy::WifiLeaseProxy(os::WifiManagerService &wms,
                               power::RadioModel &radio,
                               os::ActivityManagerService &am)
    : SnapshotLeaseProxy(ResourceType::Wifi), wms_(wms), radio_(radio), am_(am)
{
    wms_.addListener(this);
}

void
WifiLeaseProxy::onExpire(const Lease &lease)
{
    wms_.suspend(lease.token);
}

void
WifiLeaseProxy::onRenew(const Lease &lease)
{
    wms_.restore(lease.token);
}

bool
WifiLeaseProxy::resourceHeld(const Lease &lease)
{
    return wms_.isHeld(lease.token);
}

WifiSnapshot
WifiLeaseProxy::snapshot(const Lease &lease)
{
    WifiSnapshot s;
    s.enabledSeconds = wms_.enabledSeconds(lease.uid);
    s.activeSeconds = radio_.wifiActiveSeconds(lease.uid);
    s.uiUpdates = am_.uiUpdateCount(lease.uid);
    s.interactions = am_.userInteractionCount(lease.uid);
    s.acquires = wms_.acquireCount(lease.uid);
    return s;
}

LeaseStat
WifiLeaseProxy::termStat(const Lease &lease, const WifiSnapshot &start,
                         const WifiSnapshot &now)
{
    LeaseStat stat;
    stat.termStart = lease.termStart;
    stat.termEnd = lease.termStart + lease.termLength;
    stat.holdingSeconds = now.enabledSeconds - start.enabledSeconds;
    stat.usageSeconds = now.activeSeconds - start.activeSeconds;
    stat.uiUpdates = now.uiUpdates - start.uiUpdates;
    stat.interactions = now.interactions - start.interactions;
    stat.acquires = now.acquires - start.acquires;
    stat.heldAtTermEnd = wms_.isHeld(lease.token);

    utility::Signals signals;
    signals.termSeconds = stat.termSeconds();
    signals.usageSeconds = stat.usageSeconds;
    signals.uiUpdates = stat.uiUpdates;
    signals.interactions = stat.interactions;
    stat.utilityScore = utility::genericScore(ResourceType::Wifi, signals);
    return stat;
}

} // namespace leaseos::lease
