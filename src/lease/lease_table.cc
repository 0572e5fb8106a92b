#include "lease/lease_table.h"

#include "sim/state_digest.h"

namespace leaseos::lease {

Lease &
LeaseTable::create(ResourceType rtype, os::TokenId token, Uid uid)
{
    const LeaseId id = nextId_++;
    Lease &lease = leases_[id];
    lease.id = id;
    lease.uid = uid;
    lease.rtype = rtype;
    lease.token = token;
    byToken_[token] = id;
    return lease;
}

Lease *
LeaseTable::find(LeaseId id)
{
    auto it = leases_.find(id);
    return it == leases_.end() ? nullptr : &it->second;
}

const Lease *
LeaseTable::find(LeaseId id) const
{
    auto it = leases_.find(id);
    return it == leases_.end() ? nullptr : &it->second;
}

Lease *
LeaseTable::findByToken(os::TokenId token)
{
    auto it = byToken_.find(token);
    return it == byToken_.end() ? nullptr : find(it->second);
}

void
LeaseTable::reap(LeaseId id)
{
    auto it = leases_.find(id);
    if (it == leases_.end()) return;
    byToken_.erase(it->second.token);
    leases_.erase(it);
}

std::vector<Lease *>
LeaseTable::all()
{
    std::vector<Lease *> out;
    out.reserve(leases_.size());
    for (auto &[id, lease] : leases_) out.push_back(&lease);
    return out;
}

std::vector<const Lease *>
LeaseTable::all() const
{
    std::vector<const Lease *> out;
    out.reserve(leases_.size());
    for (const auto &[id, lease] : leases_) out.push_back(&lease);
    return out;
}

std::size_t
LeaseTable::countInState(LeaseState state) const
{
    std::size_t n = 0;
    for (const auto &[id, lease] : leases_)
        if (lease.state == state) ++n;
    return n;
}

bool
LeaseTable::indexMatchesLeases() const
{
    if (byToken_.size() != leases_.size()) return false;
    for (const auto &[id, lease] : leases_) {
        auto it = byToken_.find(lease.token);
        if (it == byToken_.end() || it->second != id) return false;
    }
    return true;
}

void
LeaseTable::digestState(sim::StateDigest &d) const
{
    d.u64(nextId_);
    d.u64(leases_.size());
    for (const auto &[id, lease] : leases_) {
        d.u64(lease.id);
        d.u32(static_cast<std::uint32_t>(lease.uid));
        d.u8(static_cast<std::uint8_t>(lease.rtype));
        d.u64(lease.token);
        d.u8(static_cast<std::uint8_t>(lease.state));
        d.time(lease.createdAt);
        d.time(lease.termStart);
        d.time(lease.termLength);
        d.i64(lease.termIndex);
        d.i64(lease.consecutiveNormal);
        d.i64(lease.consecutiveMisbehaved);
        d.u64(lease.deferrals);
        d.time(lease.deferredAt);
        d.f64(lease.totalDeferralSeconds);
        const TermCounters &c = lease.termStartCounters;
        d.f64(c.requestSeconds);
        d.f64(c.failedRequestSeconds);
        d.f64(c.holdingSeconds);
        d.f64(c.usageSeconds);
        d.u64(c.exceptions);
        d.u64(c.uiUpdates);
        d.u64(c.interactions);
        d.f64(c.distanceMeters);
        d.u64(c.acquires);
        d.u8(static_cast<std::uint8_t>(lease.lastBehavior));
        d.i64(lease.behaviorRun);
    }
    d.u64(byToken_.size());
    for (const auto &[token, id] : byToken_) {
        d.u64(token);
        d.u64(id);
    }
}

} // namespace leaseos::lease
