#ifndef LEASEOS_LEASE_LEASE_TABLE_H
#define LEASEOS_LEASE_LEASE_TABLE_H

/**
 * @file
 * The system-wide lease table (§4.3): all leases for all apps/resources,
 * addressable by lease descriptor or by the backing kernel object.
 */

#include <cstdint>
#include <map>
#include <vector>

#include "lease/lease.h"

namespace leaseos::sim {
class StateDigest;
} // namespace leaseos::sim

namespace leaseos::lease {

/**
 * Owning registry of all leases in the system.
 */
class LeaseTable
{
  public:
    /** Create a lease; returns a stable reference (owned by the table). */
    Lease &create(ResourceType rtype, os::TokenId token, Uid uid);

    Lease *find(LeaseId id);
    const Lease *find(LeaseId id) const;

    /** Lease backing a kernel object; null if none (or dead+reaped). */
    Lease *findByToken(os::TokenId token);

    /** Remove a dead lease from the table. */
    void reap(LeaseId id);

    std::size_t size() const { return leases_.size(); }

    /** Snapshot of live lease pointers (stable until next mutation). */
    std::vector<Lease *> all();
    std::vector<const Lease *> all() const;

    /** Number of leases in a given state right now. */
    std::size_t countInState(LeaseState state) const;

    std::uint64_t totalCreated() const { return nextId_ - 1; }

    /**
     * Audit (walks every lease): the token index maps each lease's token
     * to that lease and lists nothing else. Holds between manager calls.
     */
    bool indexMatchesLeases() const;

    /**
     * Hash every lease's raw fields, then the token index (DESIGN.md
     * §11). Each lease's pendingEvent handle is left out: it names a
     * closure in the event queue.
     */
    void digestState(sim::StateDigest &d) const;

  private:
    std::map<LeaseId, Lease> leases_;
    std::map<os::TokenId, LeaseId> byToken_;
    LeaseId nextId_ = 1;
};

} // namespace leaseos::lease

#endif // LEASEOS_LEASE_LEASE_TABLE_H
