#include "os/wifi_manager_service.h"

#include <set>
#include <utility>

namespace leaseos::os {

WifiManagerService::WifiManagerService(sim::Simulator &sim,
                                       power::CpuModel &cpu,
                                       power::RadioModel &radio,
                                       TokenAllocator &tokens)
    : ResourceService(sim, cpu, "wifi", tokens), radio_(radio),
      lastAdvance_(sim.now())
{
}

void
WifiManagerService::advance()
{
    sim::Time now = sim_.now();
    if (now <= lastAdvance_) {
        lastAdvance_ = now;
        return;
    }
    double dt = (now - lastAdvance_).seconds();
    for (const auto *entry : records_.live()) {
        const WifiLock &lock = entry->second;
        auto &totals = records_.accrue(lock.uid);
        if (lock.live) totals.heldSeconds += dt;
        if (lock.enabled) totals.enabledSeconds += dt;
    }
    lastAdvance_ = now;
}

void
WifiManagerService::apply()
{
    std::set<Uid> owners;
    records_.sweep([&](TokenId, WifiLock &lock) {
        lock.enabled = shouldEnable(lock);
        if (lock.enabled) owners.insert(lock.uid);
    });
    radio_.setWifiLockOwners({owners.begin(), owners.end()});
}

TokenId
WifiManagerService::createWifiLock(Uid uid, std::string tag)
{
    chargeIpc(uid, kBinderIpcLatency);
    advance();
    TokenId token = tokens_.next();
    WifiLock lock;
    lock.uid = uid;
    lock.tag = std::move(tag);
    records_.add(token, std::move(lock));
    for (auto *l : listeners_) l->onCreated(token, uid);
    return token;
}

void
WifiManagerService::acquire(TokenId token)
{
    WifiLock *lock = records_.find(token);
    if (!lock) return;
    chargeIpc(lock->uid, kResourceIpcLatency);
    advance();
    records_.setLive(token, true);
    ++records_.accrue(lock->uid).acquires;
    apply();
    for (auto *l : listeners_) l->onAcquired(token, lock->uid);
}

void
WifiManagerService::release(TokenId token)
{
    WifiLock *lock = records_.find(token);
    if (!lock || !lock->live) return;
    chargeIpc(lock->uid, kBinderIpcLatency);
    advance();
    records_.setLive(token, false);
    apply();
    for (auto *l : listeners_) l->onReleased(token, lock->uid);
}

void
WifiManagerService::destroy(TokenId token)
{
    const WifiLock *lock = records_.find(token);
    if (!lock) return;
    advance();
    Uid uid = lock->uid;
    records_.erase(token);
    tokens_.retire(token);
    apply();
    for (auto *l : listeners_) l->onDestroyed(token, uid);
}

double
WifiManagerService::heldSeconds(Uid uid)
{
    advance();
    return records_.totals(uid).heldSeconds;
}

double
WifiManagerService::enabledSeconds(Uid uid)
{
    advance();
    return records_.totals(uid).enabledSeconds;
}

} // namespace leaseos::os
