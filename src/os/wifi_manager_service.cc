#include "os/wifi_manager_service.h"

#include <set>

namespace leaseos::os {

WifiManagerService::WifiManagerService(sim::Simulator &sim,
                                       power::CpuModel &cpu,
                                       power::RadioModel &radio,
                                       TokenAllocator &tokens)
    : ResourceService(sim, cpu, "wifi", tokens), radio_(radio)
{
}

void
WifiManagerService::accrue(double dt)
{
    for (const auto *entry : records_.live()) {
        const WifiLock &lock = entry->second;
        auto &totals = records_.accrue(lock.uid);
        if (lock.live) totals.heldSeconds += dt;
        if (lock.enabled) totals.enabledSeconds += dt;
    }
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

} // namespace leaseos::os
