#include "lease/proxies/lease_proxy.h"

#include <utility>

#include "lease/lease_manager.h"
#include "lease/utility/generic_utility.h"

namespace leaseos::lease {

LeaseProxy::LeaseProxy(LeaseManagerService &manager, ResourceType rtype,
                       os::ResourceServiceBase &service, CounterReader read,
                       TokenFilter mine)
    : manager_(manager), rtype_(rtype), service_(service),
      read_(std::move(read)), mine_(std::move(mine))
{
    service_.addListener(this);
}

LeaseStat
LeaseProxy::collectStat(const Lease &lease)
{
    const TermCounters &start = lease.termStartCounters;
    const TermCounters now = read_(lease);

    LeaseStat stat;
    stat.termStart = lease.termStart;
    stat.termEnd = lease.termStart + lease.termLength;
    stat.requestSeconds = now.requestSeconds - start.requestSeconds;
    stat.failedRequestSeconds =
        now.failedRequestSeconds - start.failedRequestSeconds;
    stat.holdingSeconds = now.holdingSeconds - start.holdingSeconds;
    stat.usageSeconds = now.usageSeconds - start.usageSeconds;
    stat.exceptions = now.exceptions - start.exceptions;
    stat.uiUpdates = now.uiUpdates - start.uiUpdates;
    stat.interactions = now.interactions - start.interactions;
    stat.distanceMeters = now.distanceMeters - start.distanceMeters;
    stat.acquires = now.acquires - start.acquires;
    stat.heldAtTermEnd = service_.isLive(lease.token);
    stat.utilityScore = utility::termScore(rtype_, stat);
    return stat;
}

const Lease *
LeaseProxy::leaseOf(os::TokenId token) const
{
    const Lease *lease = manager_.table().findByToken(token);
    return lease && lease->rtype == rtype_ ? lease : nullptr;
}

void
LeaseProxy::onCreated(os::TokenId token, Uid uid)
{
    if (mine_ && !mine_(token)) return;
    manager_.create(rtype_, token, uid);
}

void
LeaseProxy::onAcquired(os::TokenId token, Uid uid)
{
    (void)uid;
    if (mine_ && !mine_(token)) return;
    if (const Lease *lease = leaseOf(token)) manager_.noteAcquire(lease->id);
}

void
LeaseProxy::onDestroyed(os::TokenId token, Uid uid)
{
    (void)uid;
    // The service has already erased the object, so mine_ cannot tell
    // whose it was; the lease's resource type does.
    if (const Lease *lease = leaseOf(token)) manager_.remove(lease->id);
}

} // namespace leaseos::lease
