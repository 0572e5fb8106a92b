#include "os/power_manager_service.h"

#include <algorithm>
#include <set>
#include <utility>

namespace leaseos::os {

PowerManagerService::PowerManagerService(sim::Simulator &sim,
                                         power::CpuModel &cpu,
                                         TokenAllocator &tokens)
    : ResourceService(sim, cpu, "power", tokens), lastAdvance_(sim.now())
{
}

void
PowerManagerService::advance()
{
    sim::Time now = sim_.now();
    if (now <= lastAdvance_) {
        lastAdvance_ = now;
        return;
    }
    double dt = (now - lastAdvance_).seconds();
    for (auto *entry : records_.live()) {
        WakeLock &lock = entry->second;
        auto &totals = records_.accrue(lock.uid);
        if (lock.live) {
            lock.heldSeconds += dt;
            totals.heldSeconds += dt;
        }
        if (lock.enabled) {
            lock.enabledSeconds += dt;
            totals.enabledSeconds += dt;
        }
    }
    lastAdvance_ = now;
}

void
PowerManagerService::apply()
{
    std::set<Uid> partial;
    std::set<Uid> full;
    records_.sweep([&](TokenId, WakeLock &lock) {
        lock.enabled = shouldEnable(lock);
        if (!lock.enabled) return;
        if (lock.type == WakeLockType::Partial) partial.insert(lock.uid);
        else full.insert(lock.uid);
    });
    // Full locks also keep the CPU awake.
    std::set<Uid> cpu_owners = partial;
    cpu_owners.insert(full.begin(), full.end());
    cpu_.setWakelockOwners({cpu_owners.begin(), cpu_owners.end()});

    std::vector<Uid> full_owners(full.begin(), full.end());
    if (full_owners != lastFullOwners_) {
        lastFullOwners_ = full_owners;
        if (fullLockCb_) fullLockCb_(lastFullOwners_);
    }
}

TokenId
PowerManagerService::newWakeLock(Uid uid, WakeLockType type,
                                 std::string tag)
{
    chargeIpc(uid, kBinderIpcLatency);
    advance();
    TokenId token = tokens_.next();
    WakeLock lock;
    lock.uid = uid;
    lock.type = type;
    lock.tag = std::move(tag);
    records_.add(token, std::move(lock));
    for (auto *l : listeners_) l->onCreated(token, uid);
    return token;
}

void
PowerManagerService::acquire(TokenId token)
{
    WakeLock *lock = records_.find(token);
    if (!lock) return;
    chargeIpc(lock->uid, kResourceIpcLatency);
    advance();
    records_.setLive(token, true);
    ++records_.accrue(lock->uid).acquires;
    apply();
    for (auto *l : listeners_) l->onAcquired(token, lock->uid);
}

void
PowerManagerService::release(TokenId token)
{
    WakeLock *lock = records_.find(token);
    if (!lock) return;
    chargeIpc(lock->uid, kBinderIpcLatency);
    advance();
    if (!lock->live) return;
    records_.setLive(token, false);
    ++records_.accrue(lock->uid).releases;
    apply();
    for (auto *l : listeners_) l->onReleased(token, lock->uid);
}

void
PowerManagerService::destroy(TokenId token)
{
    const WakeLock *lock = records_.find(token);
    if (!lock) return;
    advance();
    Uid uid = lock->uid;
    records_.erase(token);
    tokens_.retire(token);
    apply();
    for (auto *l : listeners_) l->onDestroyed(token, uid);
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
PowerManagerService::heldSeconds(Uid uid)
{
    advance();
    return records_.totals(uid).heldSeconds;
}

double
PowerManagerService::heldSecondsForToken(TokenId token)
{
    advance();
    const WakeLock *lock = records_.find(token);
    return lock ? lock->heldSeconds : 0.0;
}

double
PowerManagerService::enabledSeconds(Uid uid)
{
    advance();
    return records_.totals(uid).enabledSeconds;
}

double
PowerManagerService::enabledSecondsForToken(TokenId token)
{
    advance();
    const WakeLock *lock = records_.find(token);
    return lock ? lock->enabledSeconds : 0.0;
}

std::vector<Uid>
PowerManagerService::enabledOwners() const
{
    std::set<Uid> owners;
    for (const auto *entry : records_.live())
        if (entry->second.enabled) owners.insert(entry->second.uid);
    return {owners.begin(), owners.end()};
}

WakeLockType
PowerManagerService::typeOf(TokenId token) const
{
    const WakeLock *lock = records_.find(token);
    return lock ? lock->type : WakeLockType::Partial;
}

const std::string &
PowerManagerService::tagOf(TokenId token) const
{
    static const std::string empty;
    const WakeLock *lock = records_.find(token);
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
