#include "os/wifi_manager_service.h"

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
    for (const auto &[token, lock] : records_) {
        if (!lock.live) continue;
        auto &totals = totals_[lock.uid];
        totals.heldSeconds += dt;
        if (lock.enabled) totals.enabledSeconds += dt;
    }
}

void
WifiManagerService::apply()
{
    const Owners owners = sweepOwners();
    radio_.setWifiLockOwners(owners.span());
}

} // namespace leaseos::os
