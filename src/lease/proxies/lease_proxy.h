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
 * directly via onExpire/onRenew.
 *
 * §6: "Much of the logic for different lease proxies is the same... This
 * common logic is provided via a generic lease proxy class." Here it is
 * all of the logic: one class serves every resource type. What differs
 * per resource is passed in: the service whose objects it governs, the
 * counter reader a term is measured with, and (for the two wakelock
 * levels sharing PowerManagerService) which tokens are its own.
 */

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "lease/lease.h"
#include "lease/lease_stat.h"
#include "lease/resource_type.h"
#include "os/resource_listener.h"
#include "os/resource_service.h"

namespace leaseos::lease {

class LeaseManagerService;

/**
 * Cumulative service counters a lease term is measured against: the
 * counter fields of LeaseStat, zero where a resource measures nothing. A
 * term's stat is the field-by-field difference of two readings.
 */
struct TermCounters {
    double requestSeconds = 0.0;
    double failedRequestSeconds = 0.0;
    double holdingSeconds = 0.0;
    double usageSeconds = 0.0;
    std::uint64_t exceptions = 0;
    std::uint64_t uiUpdates = 0;
    std::uint64_t interactions = 0;
    double distanceMeters = 0.0;
    std::uint64_t acquires = 0;
};

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
     * accepts) as leases of @p rtype measured by @p read.
     */
    LeaseProxy(ResourceType rtype, os::ResourceServiceBase &service,
               CounterReader read, TokenFilter mine = nullptr);
    /** The service holds this proxy's address as a listener. */
    LeaseProxy(const LeaseProxy &) = delete;
    LeaseProxy &operator=(const LeaseProxy &) = delete;

    ResourceType rtype() const { return rtype_; }

    /** Wired by LeaseManagerService::registerProxy. */
    void attach(LeaseManagerService *manager) { manager_ = manager; }

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

    /** A new term begins: snapshot the counters. */
    void beginTerm(const Lease &lease) { snapshots_[lease.id] = read_(lease); }

    /** Term over: the term's stats from the counter deltas. */
    LeaseStat collectStat(const Lease &lease);

    /**
     * The lease left ACTIVE without a collectStat (released at term end,
     * or dead): forget its term snapshot.
     */
    void dropSnapshot(LeaseId id) { snapshots_.erase(id); }

    /** Leases holding a term snapshot, in id order (for the oracle). */
    std::vector<LeaseId> snapshotLeases() const;

    // ---- ResourceListener: forwarding to the manager --------------------

    void onCreated(os::TokenId token, Uid uid) override;
    void onAcquired(os::TokenId token, Uid uid) override;
    void onDestroyed(os::TokenId token, Uid uid) override;

  private:
    /** The lease of this proxy's type backing @p token, or null. */
    const Lease *leaseOf(os::TokenId token) const;

    ResourceType rtype_;
    os::ResourceServiceBase &service_;
    CounterReader read_;
    TokenFilter mine_;
    LeaseManagerService *manager_ = nullptr;
    /** Term-start counters, held exactly while their lease is ACTIVE. */
    std::map<LeaseId, TermCounters> snapshots_;
};

} // namespace leaseos::lease

#endif // LEASEOS_LEASE_PROXIES_LEASE_PROXY_H
