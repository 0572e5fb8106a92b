#include "os/activity_manager_service.h"

#include <utility>

namespace leaseos::os {

ActivityManagerService::ActivityManagerService(sim::Simulator &sim,
                                               power::CpuModel &cpu)
    : Service(sim, cpu, "activity"), lastAdvance_(sim.now())
{
}

void
ActivityManagerService::advance()
{
    sim::Time now = sim_.now();
    if (now <= lastAdvance_) {
        lastAdvance_ = now;
        return;
    }
    double dt = (now - lastAdvance_).seconds();
    for (auto &[uid, rec] : apps_)
        if (rec.liveActivities > 0) rec.activitySeconds += dt;
    lastAdvance_ = now;
}

void
ActivityManagerService::setForeground(Uid uid)
{
    if (uid == foreground_) return;
    foreground_ = uid;
    for (const auto &fn : foregroundListeners_) fn(uid);
}

void
ActivityManagerService::addForegroundListener(std::function<void(Uid)> fn)
{
    foregroundListeners_.push_back(std::move(fn));
}

void
ActivityManagerService::activityStarted(Uid uid)
{
    advance();
    ++apps_[uid].liveActivities;
}

void
ActivityManagerService::activityStopped(Uid uid)
{
    advance();
    auto it = apps_.find(uid);
    if (it == apps_.end() || it->second.liveActivities == 0) return;
    --it->second.liveActivities;
}

bool
ActivityManagerService::hasLiveActivity(Uid uid) const
{
    auto it = apps_.find(uid);
    return it != apps_.end() && it->second.liveActivities > 0;
}

double
ActivityManagerService::activityAliveSeconds(Uid uid)
{
    advance();
    auto it = apps_.find(uid);
    return it == apps_.end() ? 0.0 : it->second.activitySeconds;
}

std::uint64_t
ActivityManagerService::uiUpdateCount(Uid uid) const
{
    auto it = uiUpdates_.find(uid);
    return it == uiUpdates_.end() ? 0 : it->second;
}

std::uint64_t
ActivityManagerService::userInteractionCount(Uid uid) const
{
    auto it = interactions_.find(uid);
    return it == interactions_.end() ? 0 : it->second;
}

} // namespace leaseos::os
