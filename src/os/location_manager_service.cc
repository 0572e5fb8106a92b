#include "os/location_manager_service.h"

#include <utility>

namespace leaseos::os {

LocationManagerService::LocationManagerService(sim::Simulator &sim,
                                               power::CpuModel &cpu,
                                               power::GpsModel &gps,
                                               TokenAllocator &tokens)
    : ResourceService(sim, cpu, "location", tokens), gps_(gps)
{
    positionFn_ = [](sim::Time) { return GeoPoint{}; };
}

void
LocationManagerService::accrue(double dt)
{
    bool fix = gps_.hasFix();
    for (const auto &[token, req] : records_) {
        if (!req.enabled) continue;
        auto &totals = totals_[req.uid];
        totals.requestSeconds += dt;
        if (!fix) totals.noFixSeconds += dt;
    }
}

void
LocationManagerService::apply()
{
    const Owners owners = sweepOwners(
        [this](TokenId token, LocationRequest &req, bool wasEnabled) {
            if (!wasEnabled) scheduleTick(token, req.interval);
        });
    gps_.setRequestOwners(owners.span());
}

void
LocationManagerService::deliver(LocationRequest &req)
{
    if (!gps_.hasFix()) return;
    GeoPoint here = positionFn_(sim_.now());
    auto &totals = totals_[req.uid];
    ++totals.fixes;
    if (req.hasLastPoint)
        totals.distanceMeters += leaseos::distanceMeters(req.lastPoint, here);
    req.lastPoint = here;
    req.hasLastPoint = true;
    if (req.listener) {
        // Deliveries run a sliver of app CPU (listener invocation).
        cpu_.runWorkFor(req.uid, 0.5, sim::Time::fromMillis(5));
        req.listener->onLocation(here);
    }
}

} // namespace leaseos::os
