#include "os/location_manager_service.h"

#include <set>
#include <utility>

namespace leaseos::os {

LocationManagerService::LocationManagerService(sim::Simulator &sim,
                                               power::CpuModel &cpu,
                                               power::GpsModel &gps,
                                               TokenAllocator &tokens)
    : ResourceService(sim, cpu, "location", tokens), gps_(gps),
      lastAdvance_(sim.now())
{
    positionFn_ = [](sim::Time) { return GeoPoint{}; };
}

void
LocationManagerService::advance()
{
    sim::Time now = sim_.now();
    if (now <= lastAdvance_) {
        lastAdvance_ = now;
        return;
    }
    double dt = (now - lastAdvance_).seconds();
    bool fix = gps_.hasFix();
    for (const auto *entry : records_.live()) {
        const LocationRequest &req = entry->second;
        if (!req.enabled) continue;
        auto &totals = records_.accrue(req.uid);
        totals.requestSeconds += dt;
        if (!fix) totals.noFixSeconds += dt;
    }
    lastAdvance_ = now;
}

void
LocationManagerService::apply()
{
    std::set<Uid> owners;
    records_.sweep([&](TokenId token, LocationRequest &req) {
        bool enabled = shouldEnable(req);
        if (enabled && !req.enabled) {
            req.enabled = true;
            scheduleTick(token);
        } else {
            req.enabled = enabled;
        }
        if (req.enabled) owners.insert(req.uid);
    });
    gps_.setRequestOwners({owners.begin(), owners.end()});
}

void
LocationManagerService::scheduleTick(TokenId token)
{
    LocationRequest *req = records_.find(token);
    if (!req || req->tickScheduled) return;
    req->tickScheduled = true;
    sim_.schedule(req->interval, [this, token] { deliverTick(token); });
}

void
LocationManagerService::deliverTick(TokenId token)
{
    LocationRequest *req = records_.find(token);
    if (!req) return;
    req->tickScheduled = false;
    if (!req->enabled) return; // suspended/filtered: callbacks withheld
    if (gps_.hasFix()) {
        GeoPoint here = positionFn_(sim_.now());
        auto &totals = records_.accrue(req->uid);
        ++totals.fixes;
        if (req->hasLastPoint)
            totals.distanceMeters +=
                leaseos::distanceMeters(req->lastPoint, here);
        req->lastPoint = here;
        req->hasLastPoint = true;
        if (req->listener) {
            // Deliveries run a sliver of app CPU (listener invocation).
            cpu_.runWorkFor(req->uid, 0.5, sim::Time::fromMillis(5));
            req->listener->onLocation(here);
        }
    }
    scheduleTick(token);
}

TokenId
LocationManagerService::requestLocationUpdates(Uid uid, sim::Time interval,
                                               LocationListener *listener)
{
    chargeIpc(uid, kResourceIpcLatency);
    advance();
    TokenId token = tokens_.next();
    LocationRequest req;
    req.uid = uid;
    req.interval = interval;
    req.listener = listener;
    req.live = true;
    records_.add(token, req);
    ++records_.accrue(uid).requests;
    apply();
    for (auto *l : listeners_) l->onCreated(token, uid);
    for (auto *l : listeners_) l->onAcquired(token, uid);
    return token;
}

void
LocationManagerService::removeUpdates(TokenId token)
{
    LocationRequest *req = records_.find(token);
    if (!req || !req->live) return;
    Uid uid = req->uid;
    chargeIpc(uid, kBinderIpcLatency);
    advance();
    records_.setLive(token, false);
    apply();
    for (auto *l : listeners_) l->onReleased(token, uid);
}

void
LocationManagerService::destroy(TokenId token)
{
    const LocationRequest *req = records_.find(token);
    if (!req) return;
    Uid uid = req->uid;
    advance();
    records_.erase(token);
    tokens_.retire(token);
    apply();
    for (auto *l : listeners_) l->onDestroyed(token, uid);
}

double
LocationManagerService::requestSeconds(Uid uid)
{
    advance();
    return records_.totals(uid).requestSeconds;
}

double
LocationManagerService::noFixSeconds(Uid uid)
{
    advance();
    return records_.totals(uid).noFixSeconds;
}

} // namespace leaseos::os
