#include "lease/proxies/sensor_proxy.h"

#include "lease/utility/generic_utility.h"

namespace leaseos::lease {

SensorLeaseProxy::SensorLeaseProxy(os::SensorManagerService &sms,
                                   os::ActivityManagerService &am)
    : SnapshotLeaseProxy(ResourceType::Sensor), sms_(sms), am_(am)
{
    sms_.addListener(this);
}

void
SensorLeaseProxy::onExpire(const Lease &lease)
{
    sms_.suspend(lease.token);
}

void
SensorLeaseProxy::onRenew(const Lease &lease)
{
    sms_.restore(lease.token);
}

bool
SensorLeaseProxy::resourceHeld(const Lease &lease)
{
    return sms_.isActive(lease.token);
}

SensorSnapshot
SensorLeaseProxy::snapshot(const Lease &lease)
{
    SensorSnapshot s;
    s.registeredSeconds = sms_.registeredSeconds(lease.uid);
    s.activitySeconds = am_.activityAliveSeconds(lease.uid);
    s.uiUpdates = am_.uiUpdateCount(lease.uid);
    s.interactions = am_.userInteractionCount(lease.uid);
    return s;
}

LeaseStat
SensorLeaseProxy::termStat(const Lease &lease, const SensorSnapshot &start,
                           const SensorSnapshot &now)
{
    LeaseStat stat;
    stat.termStart = lease.termStart;
    stat.termEnd = lease.termStart + lease.termLength;
    stat.holdingSeconds = now.registeredSeconds - start.registeredSeconds;
    stat.usageSeconds = now.activitySeconds - start.activitySeconds;
    stat.uiUpdates = now.uiUpdates - start.uiUpdates;
    stat.interactions = now.interactions - start.interactions;
    stat.heldAtTermEnd = sms_.isActive(lease.token);

    utility::Signals signals;
    signals.termSeconds = stat.termSeconds();
    signals.usageSeconds = stat.usageSeconds;
    signals.uiUpdates = stat.uiUpdates;
    signals.interactions = stat.interactions;
    stat.utilityScore = utility::genericScore(ResourceType::Sensor, signals);
    return stat;
}

} // namespace leaseos::lease
