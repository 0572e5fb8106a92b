#include "lease/proxies/screen_proxy.h"

#include "lease/utility/generic_utility.h"

namespace leaseos::lease {

ScreenLeaseProxy::ScreenLeaseProxy(os::PowerManagerService &pms,
                                   os::ActivityManagerService &am)
    : SnapshotLeaseProxy(ResourceType::Screen), pms_(pms), am_(am)
{
    pms_.addListener(this);
}

bool
ScreenLeaseProxy::mine(os::TokenId token) const
{
    return pms_.typeOf(token) == os::WakeLockType::Full;
}

void
ScreenLeaseProxy::onCreated(os::TokenId token, Uid uid)
{
    if (mine(token)) LeaseProxy::onCreated(token, uid);
}

void
ScreenLeaseProxy::onAcquired(os::TokenId token, Uid uid)
{
    if (mine(token)) LeaseProxy::onAcquired(token, uid);
}

void
ScreenLeaseProxy::onReleased(os::TokenId token, Uid uid)
{
    if (mine(token)) LeaseProxy::onReleased(token, uid);
}

void
ScreenLeaseProxy::onDestroyed(os::TokenId token, Uid uid)
{
    LeaseProxy::onDestroyed(token, uid);
}

void
ScreenLeaseProxy::onExpire(const Lease &lease)
{
    pms_.suspend(lease.token);
}

void
ScreenLeaseProxy::onRenew(const Lease &lease)
{
    pms_.restore(lease.token);
}

bool
ScreenLeaseProxy::resourceHeld(const Lease &lease)
{
    return pms_.isHeld(lease.token);
}

ScreenSnapshot
ScreenLeaseProxy::snapshot(const Lease &lease)
{
    ScreenSnapshot s;
    s.enabledSeconds = pms_.enabledSecondsForToken(lease.token);
    s.activitySeconds = am_.activityAliveSeconds(lease.uid);
    s.uiUpdates = am_.uiUpdateCount(lease.uid);
    s.interactions = am_.userInteractionCount(lease.uid);
    s.acquires = pms_.acquireCount(lease.uid);
    return s;
}

LeaseStat
ScreenLeaseProxy::termStat(const Lease &lease, const ScreenSnapshot &start,
                           const ScreenSnapshot &now)
{
    LeaseStat stat;
    stat.termStart = lease.termStart;
    stat.termEnd = lease.termStart + lease.termLength;
    stat.holdingSeconds = now.enabledSeconds - start.enabledSeconds;
    stat.usageSeconds = now.activitySeconds - start.activitySeconds;
    stat.uiUpdates = now.uiUpdates - start.uiUpdates;
    stat.interactions = now.interactions - start.interactions;
    stat.acquires = now.acquires - start.acquires;
    stat.heldAtTermEnd = pms_.isHeld(lease.token);

    utility::Signals signals;
    signals.termSeconds = stat.termSeconds();
    signals.usageSeconds = stat.usageSeconds;
    signals.uiUpdates = stat.uiUpdates;
    signals.interactions = stat.interactions;
    stat.utilityScore = utility::genericScore(ResourceType::Screen, signals);
    return stat;
}

} // namespace leaseos::lease
