#include "lease/proxies/wakelock_proxy.h"

#include "lease/utility/generic_utility.h"

namespace leaseos::lease {

WakelockLeaseProxy::WakelockLeaseProxy(os::PowerManagerService &pms,
                                       power::CpuModel &cpu,
                                       os::ExceptionNoteHandler &exceptions,
                                       os::ActivityManagerService &am)
    : SnapshotLeaseProxy(ResourceType::Wakelock), pms_(pms), cpu_(cpu),
      exceptions_(exceptions), am_(am)
{
    pms_.addListener(this);
}

bool
WakelockLeaseProxy::mine(os::TokenId token) const
{
    return pms_.typeOf(token) == os::WakeLockType::Partial;
}

void
WakelockLeaseProxy::onCreated(os::TokenId token, Uid uid)
{
    if (mine(token)) LeaseProxy::onCreated(token, uid);
}

void
WakelockLeaseProxy::onAcquired(os::TokenId token, Uid uid)
{
    if (mine(token)) LeaseProxy::onAcquired(token, uid);
}

void
WakelockLeaseProxy::onReleased(os::TokenId token, Uid uid)
{
    if (mine(token)) LeaseProxy::onReleased(token, uid);
}

void
WakelockLeaseProxy::onDestroyed(os::TokenId token, Uid uid)
{
    // Destruction erases the lock record, so typeOf() no longer answers;
    // forward unconditionally — unknown tokens are ignored by the map.
    LeaseProxy::onDestroyed(token, uid);
}

void
WakelockLeaseProxy::onExpire(const Lease &lease)
{
    pms_.suspend(lease.token);
}

void
WakelockLeaseProxy::onRenew(const Lease &lease)
{
    pms_.restore(lease.token);
}

bool
WakelockLeaseProxy::resourceHeld(const Lease &lease)
{
    return pms_.isHeld(lease.token);
}

WakelockSnapshot
WakelockLeaseProxy::snapshot(const Lease &lease)
{
    WakelockSnapshot s;
    s.enabledSeconds = pms_.enabledSecondsForToken(lease.token);
    // §8: under DVFS the utilisation metric must be adjusted by device
    // state — frequency-normalised busy time measures work done, not
    // occupancy at a crawling clock.
    s.cpuSeconds = cpu_.dvfsEnabled()
        ? cpu_.normalizedCpuSeconds(lease.uid)
        : cpu_.cpuSeconds(lease.uid);
    s.exceptions = exceptions_.severeCount(lease.uid);
    s.uiUpdates = am_.uiUpdateCount(lease.uid);
    s.interactions = am_.userInteractionCount(lease.uid);
    s.acquires = pms_.acquireCount(lease.uid);
    return s;
}

LeaseStat
WakelockLeaseProxy::termStat(const Lease &lease, const WakelockSnapshot &start,
                             const WakelockSnapshot &now)
{
    LeaseStat stat;
    stat.termStart = lease.termStart;
    stat.termEnd = lease.termStart + lease.termLength;
    stat.holdingSeconds = now.enabledSeconds - start.enabledSeconds;
    stat.usageSeconds = now.cpuSeconds - start.cpuSeconds;
    stat.exceptions = now.exceptions - start.exceptions;
    stat.uiUpdates = now.uiUpdates - start.uiUpdates;
    stat.interactions = now.interactions - start.interactions;
    stat.acquires = now.acquires - start.acquires;
    stat.heldAtTermEnd = pms_.isHeld(lease.token);

    utility::Signals signals;
    signals.termSeconds = stat.termSeconds();
    signals.usageSeconds = stat.usageSeconds;
    signals.exceptions = stat.exceptions;
    signals.uiUpdates = stat.uiUpdates;
    signals.interactions = stat.interactions;
    stat.utilityScore =
        utility::genericScore(ResourceType::Wakelock, signals);
    return stat;
}

} // namespace leaseos::lease
