#include "os/display_manager_service.h"

#include <utility>

namespace leaseos::os {

DisplayManagerService::DisplayManagerService(sim::Simulator &sim,
                                             power::CpuModel &cpu,
                                             power::ScreenModel &screen)
    : Service(sim, cpu, "display"), screen_(screen)
{
}

void
DisplayManagerService::apply()
{
    bool on = userOn_ || !forcedOwners_.empty();
    // Forced-only screen time is attributed to the forcing apps;
    // user-initiated screen time goes to the system bucket.
    std::vector<Uid> owners;
    if (!userOn_ && !forcedOwners_.empty()) owners = forcedOwners_;
    screen_.setOn(on, owners);
    cpu_.setScreenOn(on);
    if (on != lastOn_) {
        lastOn_ = on;
        for (const auto &fn : stateListeners_) fn(on);
    }
}

void
DisplayManagerService::userSetScreen(bool on)
{
    userOn_ = on;
    apply();
}

void
DisplayManagerService::setForcedOwners(std::vector<Uid> owners)
{
    forcedOwners_ = std::move(owners);
    apply();
}

void
DisplayManagerService::addStateListener(std::function<void(bool)> fn)
{
    stateListeners_.push_back(std::move(fn));
}

} // namespace leaseos::os
