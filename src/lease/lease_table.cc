#include "lease/lease_table.h"

#include "sim/checkpoint.h"

namespace leaseos::lease {

Lease &
LeaseTable::create(ResourceType rtype, os::TokenId token, Uid uid)
{
    auto lease = std::make_unique<Lease>();
    lease->id = nextId_++;
    lease->uid = uid;
    lease->rtype = rtype;
    lease->token = token;
    Lease &ref = *lease;
    leases_.emplace(ref.id, std::move(lease));
    byToken_[token] = ref.id;
    return ref;
}

Lease *
LeaseTable::find(LeaseId id)
{
    auto it = leases_.find(id);
    return it == leases_.end() ? nullptr : it->second.get();
}

const Lease *
LeaseTable::find(LeaseId id) const
{
    auto it = leases_.find(id);
    return it == leases_.end() ? nullptr : it->second.get();
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
    byToken_.erase(it->second->token);
    leases_.erase(it);
}

std::vector<Lease *>
LeaseTable::all()
{
    std::vector<Lease *> out;
    out.reserve(leases_.size());
    for (auto &[id, lease] : leases_) out.push_back(lease.get());
    return out;
}

std::vector<const Lease *>
LeaseTable::all() const
{
    std::vector<const Lease *> out;
    out.reserve(leases_.size());
    for (const auto &[id, lease] : leases_) out.push_back(lease.get());
    return out;
}

std::size_t
LeaseTable::countInState(LeaseState state) const
{
    std::size_t n = 0;
    for (const auto &[id, lease] : leases_)
        if (lease->state == state) ++n;
    return n;
}


namespace {

void
writeStat(sim::CheckpointWriter &w, const LeaseStat &s)
{
    w.time(s.termStart);
    w.time(s.termEnd);
    w.f64(s.requestSeconds);
    w.f64(s.failedRequestSeconds);
    w.f64(s.holdingSeconds);
    w.f64(s.usageSeconds);
    w.f64(s.utilityScore);
    w.u64(s.exceptions);
    w.u64(s.uiUpdates);
    w.u64(s.interactions);
    w.f64(s.distanceMeters);
    w.u64(s.acquires);
    w.u8(s.heldAtTermEnd ? 1 : 0);
}

} // namespace

void
LeaseTable::saveState(sim::CheckpointWriter &w) const
{
    w.u64(nextId_);
    w.u64(leases_.size());
    for (const auto &[id, lease] : leases_) {
        w.u64(lease->id);
        w.u32(static_cast<std::uint32_t>(lease->uid));
        w.u8(static_cast<std::uint8_t>(lease->rtype));
        w.u64(lease->token);
        w.u8(static_cast<std::uint8_t>(lease->state));
        w.time(lease->createdAt);
        w.time(lease->termStart);
        w.time(lease->termLength);
        w.i64(lease->termIndex);
        w.i64(lease->consecutiveNormal);
        w.i64(lease->consecutiveMisbehaved);
        w.u64(lease->renewals);
        w.u64(lease->deferrals);
        w.time(lease->deferredAt);
        w.f64(lease->totalDeferralSeconds);
        w.u64(lease->history.size());
        for (const TermRecord &rec : lease->history) {
            writeStat(w, rec.stat);
            w.u8(static_cast<std::uint8_t>(rec.behavior));
        }
    }
    w.u64(byToken_.size());
    for (const auto &[token, id] : byToken_) {
        w.u64(token);
        w.u64(id);
    }
}

} // namespace leaseos::lease
