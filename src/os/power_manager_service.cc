#include "os/power_manager_service.h"

#include <algorithm>
#include <utility>

namespace leaseos::os {

PowerManagerService::PowerManagerService(sim::Simulator &sim,
                                         power::CpuModel &cpu,
                                         TokenAllocator &tokens)
    : ResourceService(sim, cpu, "power", tokens)
{
}

void
PowerManagerService::accrue(double dt)
{
    for (auto &[token, lock] : records_) {
        if (!lock.live) continue;
        auto &totals = totals_[lock.uid];
        lock.heldSeconds += dt;
        totals.heldSeconds += dt;
        if (lock.enabled) {
            lock.enabledSeconds += dt;
            totals.enabledSeconds += dt;
        }
    }
}

void
PowerManagerService::apply()
{
    // Every enabled lock keeps the CPU awake; full ones also the screen.
    Owners full;
    const Owners cpuOwners = sweepOwners([&](TokenId, WakeLock &lock, bool) {
        if (lock.type == WakeLockType::Full) full.push_back(lock.uid);
    });
    cpu_.setWakelockOwners(cpuOwners.span());

    const std::span<const Uid> fullOwners = common::sortUnique(full);
    if (!std::ranges::equal(fullOwners, lastFullOwners_)) {
        lastFullOwners_.assign(fullOwners.begin(), fullOwners.end());
        if (fullLockCb_) fullLockCb_(lastFullOwners_);
    }
}

void
PowerManagerService::setGlobalFilter(
    std::function<bool(Uid, WakeLockType)> filter)
{
    if (!filter) {
        setFilter(nullptr);
        return;
    }
    setFilter([filter = std::move(filter)](const WakeLock &lock) {
        return filter(lock.uid, lock.type);
    });
}

double
PowerManagerService::heldSecondsForToken(TokenId token)
{
    advance();
    const WakeLock *lock = find(token);
    return lock ? lock->heldSeconds : 0.0;
}

double
PowerManagerService::enabledSecondsForToken(TokenId token)
{
    advance();
    const WakeLock *lock = find(token);
    return lock ? lock->enabledSeconds : 0.0;
}

WakeLockType
PowerManagerService::typeOf(TokenId token) const
{
    const WakeLock *lock = find(token);
    return lock ? lock->type : WakeLockType::Partial;
}

const std::string &
PowerManagerService::tagOf(TokenId token) const
{
    static const std::string empty;
    const WakeLock *lock = find(token);
    return lock ? lock->tag : empty;
}

void
PowerManagerService::setFullLockCallback(
    std::function<void(std::vector<Uid>)> cb)
{
    fullLockCb_ = std::move(cb);
    if (fullLockCb_) fullLockCb_(lastFullOwners_);
}

} // namespace leaseos::os
