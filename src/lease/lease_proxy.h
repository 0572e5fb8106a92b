#ifndef LEASEOS_LEASE_LEASE_PROXY_H
#define LEASEOS_LEASE_LEASE_PROXY_H

/**
 * @file
 * Generic lease proxy (§4.4, §6).
 *
 * A proxy is the lease manager's light-weight delegate living inside one
 * OS subsystem's address space. It watches that subsystem's kernel-object
 * lifecycle, forwards lease operations (create / noteEvent / remove) to
 * the manager over the (modelled) IPC channel, caches the kernel-object →
 * lease-descriptor mapping, and applies the manager's decisions to the
 * kernel objects directly via onExpire/onRenew.
 *
 * §6: "Much of the logic for different lease proxies is the same... This
 * common logic is provided via a generic lease proxy class." Subclasses
 * implement the resource-specific parts: how to suspend/restore the kernel
 * object, and how to compute a term's LeaseStat from service counters.
 * SnapshotLeaseProxy holds the term snapshots those counters are read
 * against.
 */

#include <map>
#include <vector>

#include "lease/lease.h"
#include "lease/lease_stat.h"
#include "lease/resource_type.h"
#include "os/resource_listener.h"

namespace leaseos::lease {

class LeaseManagerService;

/**
 * Base class providing the common proxy logic.
 */
class LeaseProxy : public os::ResourceListener
{
  public:
    explicit LeaseProxy(ResourceType rtype) : rtype_(rtype) {}
    ~LeaseProxy() override = default;

    ResourceType rtype() const { return rtype_; }

    /** Wired by LeaseManagerService::registerProxy. */
    void attach(LeaseManagerService *manager) { manager_ = manager; }
    void detach() { manager_ = nullptr; }
    bool attached() const { return manager_ != nullptr; }

    // ---- Manager-facing callbacks (invoked on lease decisions) ---------

    /** Term deferred: temporarily revoke the kernel resource. */
    virtual void onExpire(const Lease &lease) = 0;

    /** Deferral over / lease renewed: restore the kernel resource. */
    virtual void onRenew(const Lease &lease) = 0;

    /** Does the app still hold the backing resource right now? */
    virtual bool resourceHeld(const Lease &lease) = 0;

    /** A new term begins: snapshot service counters. */
    virtual void beginTerm(const Lease &lease) = 0;

    /** Term over: compute the term's stats from counter deltas. */
    virtual LeaseStat collectStat(const Lease &lease) = 0;

    /**
     * The lease left ACTIVE without a collectStat (released at term end,
     * or dead): forget its term snapshot.
     */
    virtual void dropSnapshot(LeaseId id) = 0;

    /** Leases holding a term snapshot, in id order (for the oracle). */
    virtual std::vector<LeaseId> snapshotLeases() const = 0;

    // ---- ResourceListener: generic forwarding to the manager ------------

    void onCreated(os::TokenId token, Uid uid) override;
    void onAcquired(os::TokenId token, Uid uid) override;
    void onReleased(os::TokenId token, Uid uid) override;
    void onDestroyed(os::TokenId token, Uid uid) override;

  protected:
    /** Proxy-local cache of kernel object → lease descriptor (§4.4). */
    LeaseId leaseFor(os::TokenId token) const;

    LeaseManagerService *manager_ = nullptr;
    std::map<os::TokenId, LeaseId> leaseByToken_;

  private:
    ResourceType rtype_;
};

/**
 * The term bookkeeping all proxies share. beginTerm() records a Snapshot
 * of the service counters a term is measured against; collectStat() takes
 * it back out and hands start and end counters to termStat(). A snapshot
 * therefore exists exactly while its lease is ACTIVE.
 */
template <typename Snapshot>
class SnapshotLeaseProxy : public LeaseProxy
{
  public:
    using LeaseProxy::LeaseProxy;

    void
    beginTerm(const Lease &lease) final
    {
        snapshots_[lease.id] = snapshot(lease);
    }

    LeaseStat
    collectStat(const Lease &lease) final
    {
        auto taken = snapshots_.extract(lease.id);
        Snapshot start = taken ? taken.mapped() : Snapshot{};
        return termStat(lease, start, snapshot(lease));
    }

    void dropSnapshot(LeaseId id) final { snapshots_.erase(id); }

    std::vector<LeaseId>
    snapshotLeases() const final
    {
        std::vector<LeaseId> ids;
        for (const auto &entry : snapshots_) ids.push_back(entry.first);
        return ids;
    }

  protected:
    /** Read the service counters for @p lease now. */
    virtual Snapshot snapshot(const Lease &lease) = 0;

    /** The term's stats from its start and end counters. */
    virtual LeaseStat termStat(const Lease &lease, const Snapshot &start,
                               const Snapshot &now) = 0;

  private:
    std::map<LeaseId, Snapshot> snapshots_;
};

} // namespace leaseos::lease

#endif // LEASEOS_LEASE_LEASE_PROXY_H
