#ifndef LEASEOS_LEASE_PROXIES_LEASE_PROXY_H
#define LEASEOS_LEASE_PROXIES_LEASE_PROXY_H

/**
 * @file
 * The generic lease proxy (§4.4, §6).
 *
 * A proxy is the lease manager's light-weight delegate living inside one
 * OS subsystem's address space. It watches that subsystem's kernel-object
 * lifecycle, forwards lease operations (create / noteEvent / remove) to
 * the manager, and applies the manager's decisions to the kernel objects
 * directly via onExpire/onRenew. The manager builds and owns its proxies
 * (LeaseManagerService::addProxy), one per resource type.
 *
 * §6: "Much of the logic for different lease proxies is the same... This
 * common logic is provided via a generic lease proxy class." Here it is
 * all of the logic: one class serves every resource type. What differs
 * per resource is passed in: the service whose objects it governs, the
 * counter reader a term is measured with, and (for the two wakelock
 * levels sharing PowerManagerService) which tokens are its own.
 */

#include <functional>

#include "lease/lease.h"
#include "lease/lease_stat.h"
#include "lease/resource_type.h"
#include "os/resource_listener.h"
#include "os/resource_service.h"

namespace leaseos::lease {

class LeaseManagerService;

/**
 * Lease proxy for one resource type.
 */
class LeaseProxy : public os::ResourceListener
{
  public:
    /** Reads @p lease's counters now (some getters integrate time first). */
    using CounterReader = std::function<TermCounters(const Lease &)>;
    /** Whether a token of the service belongs to this proxy. */
    using TokenFilter = std::function<bool(os::TokenId)>;

    /**
     * Watch @p service's kernel objects (all of them, or those @p mine
     * accepts) as @p manager's leases of @p rtype measured by @p read.
     */
    LeaseProxy(LeaseManagerService &manager, ResourceType rtype,
               os::ResourceServiceBase &service, CounterReader read,
               TokenFilter mine);
    /** The service holds this proxy's address as a listener. */
    LeaseProxy(const LeaseProxy &) = delete;
    LeaseProxy &operator=(const LeaseProxy &) = delete;

    // ---- Manager-facing callbacks (invoked on lease decisions) ---------

    /** Term deferred: temporarily revoke the kernel resource. */
    void onExpire(const Lease &lease) { service_.suspend(lease.token); }

    /** Deferral over / lease renewed: restore the kernel resource. */
    void onRenew(const Lease &lease) { service_.restore(lease.token); }

    /** Does the app still hold the backing resource right now? */
    bool
    resourceHeld(const Lease &lease) const
    {
        return service_.isLive(lease.token);
    }

    /** A new term begins: read the counters into the lease. */
    void beginTerm(Lease &lease) { lease.termStartCounters = read_(lease); }

    /** Term over: the term's stats, counters read now minus at its start. */
    LeaseStat collectStat(const Lease &lease);

    // ---- ResourceListener: forwarding to the manager --------------------

    void onCreated(os::TokenId token, Uid uid) override;
    void onAcquired(os::TokenId token, Uid uid) override;
    void onDestroyed(os::TokenId token, Uid uid) override;

  private:
    /** The lease of this proxy's type backing @p token, or null. */
    const Lease *leaseOf(os::TokenId token) const;

    LeaseManagerService &manager_;
    ResourceType rtype_;
    os::ResourceServiceBase &service_;
    CounterReader read_;
    TokenFilter mine_;
};

} // namespace leaseos::lease

#endif // LEASEOS_LEASE_PROXIES_LEASE_PROXY_H
