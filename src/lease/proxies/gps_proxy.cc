#include "lease/proxies/gps_proxy.h"

#include "lease/utility/generic_utility.h"

namespace leaseos::lease {

GpsLeaseProxy::GpsLeaseProxy(os::LocationManagerService &lms,
                             os::ActivityManagerService &am)
    : SnapshotLeaseProxy(ResourceType::Gps), lms_(lms), am_(am)
{
    lms_.addListener(this);
}

void
GpsLeaseProxy::onExpire(const Lease &lease)
{
    lms_.suspend(lease.token);
}

void
GpsLeaseProxy::onRenew(const Lease &lease)
{
    lms_.restore(lease.token);
}

bool
GpsLeaseProxy::resourceHeld(const Lease &lease)
{
    return lms_.isActive(lease.token);
}

GpsSnapshot
GpsLeaseProxy::snapshot(const Lease &lease)
{
    GpsSnapshot s;
    s.requestSeconds = lms_.requestSeconds(lease.uid);
    s.noFixSeconds = lms_.noFixSeconds(lease.uid);
    s.activitySeconds = am_.activityAliveSeconds(lease.uid);
    s.distanceMeters = lms_.distanceMeters(lease.uid);
    s.uiUpdates = am_.uiUpdateCount(lease.uid);
    s.interactions = am_.userInteractionCount(lease.uid);
    s.requests = lms_.requestCount(lease.uid);
    return s;
}

LeaseStat
GpsLeaseProxy::termStat(const Lease &lease, const GpsSnapshot &start,
                        const GpsSnapshot &now)
{
    LeaseStat stat;
    stat.termStart = lease.termStart;
    stat.termEnd = lease.termStart + lease.termLength;
    stat.requestSeconds = now.requestSeconds - start.requestSeconds;
    stat.failedRequestSeconds = now.noFixSeconds - start.noFixSeconds;
    // For a subscription resource, holding == the outstanding request.
    stat.holdingSeconds = stat.requestSeconds;
    stat.usageSeconds = now.activitySeconds - start.activitySeconds;
    stat.distanceMeters = now.distanceMeters - start.distanceMeters;
    stat.uiUpdates = now.uiUpdates - start.uiUpdates;
    stat.interactions = now.interactions - start.interactions;
    stat.acquires = now.requests - start.requests;
    stat.heldAtTermEnd = lms_.isActive(lease.token);

    utility::Signals signals;
    signals.termSeconds = stat.termSeconds();
    signals.usageSeconds = stat.usageSeconds;
    signals.distanceMeters = stat.distanceMeters;
    signals.uiUpdates = stat.uiUpdates;
    signals.interactions = stat.interactions;
    stat.utilityScore = utility::genericScore(ResourceType::Gps, signals);
    return stat;
}

} // namespace leaseos::lease
