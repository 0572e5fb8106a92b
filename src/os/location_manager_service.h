#ifndef LEASEOS_OS_LOCATION_MANAGER_SERVICE_H
#define LEASEOS_OS_LOCATION_MANAGER_SERVICE_H

/**
 * @file
 * Location updates (android LocationManagerService analog).
 *
 * Apps register listeners with a requested update interval; the service
 * drives the GPS hardware model and delivers fixes while a lock is held.
 * GPS is a subscription-style resource: the kernel object is the update
 * request, and "holding" it means the receiver keeps running. The metrics
 * exposed here feed the lease utility calculation: total request time,
 * no-fix (failed) request time for FAB, delivered-fix count, and distance
 * moved for the generic GPS utility (§3.3).
 */

#include <cstdint>
#include <functional>
#include <vector>

#include "common/geo.h"
#include "os/binder.h"
#include "os/resource_service.h"
#include "power/gps_model.h"

namespace leaseos::os {

/** App callback receiving location fixes. */
class LocationListener
{
  public:
    virtual ~LocationListener() = default;
    virtual void onLocation(const GeoPoint &point) = 0;
};

/** One update request: the kernel object of a GPS subscription. */
struct LocationRequest {
    struct Totals {
        double requestSeconds = 0.0;
        double noFixSeconds = 0.0;
        std::uint64_t fixes = 0;
        std::uint64_t requests = 0;
        double distanceMeters = 0.0;
    };

    Uid uid = kInvalidUid;
    sim::Time interval;
    LocationListener *listener = nullptr;
    bool live = false; ///< outstanding (not removed)
    bool suspended = false;
    bool enabled = false;
    bool tickScheduled = false;
    bool hasLastPoint = false;
    GeoPoint lastPoint{};
};

/**
 * GPS request management with lease/throttle interposition hooks.
 */
class LocationManagerService : public ResourceService<LocationRequest>
{
  public:
    /** Provides the device's true position (from env::GpsEnvironment). */
    using PositionFn = std::function<GeoPoint(sim::Time)>;

    LocationManagerService(sim::Simulator &sim, power::CpuModel &cpu,
                           power::GpsModel &gps, TokenAllocator &tokens);

    /** Install the ground-truth position source. */
    void setPositionFn(PositionFn fn) { positionFn_ = std::move(fn); }

    // ---- App-facing API -------------------------------------------------

    /**
     * Register for location updates every @p interval.
     * @return the kernel object id for this request.
     */
    TokenId
    requestLocationUpdates(Uid uid, sim::Time interval,
                           LocationListener *listener)
    {
        ++totals_[uid].requests;
        return create({.uid = uid,
                       .interval = interval,
                       .listener = listener,
                       .live = true},
                      kResourceIpcLatency);
    }

    /** App-initiated removal: releases the request and frees it. */
    void
    removeUpdates(TokenId token)
    {
        setLive(token, false, kBinderIpcLatency);
        destroy(token);
    }

    // ---- Metrics --------------------------------------------------------

    /** Time an enabled request has been outstanding. */
    double requestSeconds(Uid uid) { return totalsNow(uid).requestSeconds; }

    /** Outstanding-and-enabled time during which there was no fix. */
    double noFixSeconds(Uid uid) { return totalsNow(uid).noFixSeconds; }

    std::uint64_t
    fixCount(Uid uid) const
    {
        return totals(uid).fixes;
    }
    std::uint64_t
    requestCount(Uid uid) const
    {
        return totals(uid).requests;
    }

    /** Metres moved between consecutive delivered fixes. */
    double
    distanceMeters(Uid uid) const
    {
        return totals(uid).distanceMeters;
    }

    /** Update requests @p uid still has outstanding (not removed). */
    std::vector<TokenId>
    activeRequests(Uid uid) const
    {
        return liveTokens(uid);
    }

  private:
    void accrue(double dt) override;
    void apply() override;
    void deliver(LocationRequest &req) override;

    power::GpsModel &gps_;
    PositionFn positionFn_;
};

} // namespace leaseos::os

#endif // LEASEOS_OS_LOCATION_MANAGER_SERVICE_H
