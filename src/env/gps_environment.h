#ifndef LEASEOS_ENV_GPS_ENVIRONMENT_H
#define LEASEOS_ENV_GPS_ENVIRONMENT_H

/**
 * @file
 * Sky-view and device-movement environment for GPS.
 *
 * "Inside a building with weak GPS signals" (the BetterWeather trigger) is
 * setSignalGood(false). Device movement is a piecewise-constant velocity
 * model; LocationManagerService reads positionAt() for fixes and distance.
 */

#include "common/geo.h"
#include "power/gps_model.h"
#include "sim/simulator.h"

namespace leaseos::env {

/**
 * Drives GpsModel signal state and provides ground-truth position.
 */
class GpsEnvironment
{
  public:
    GpsEnvironment(sim::Simulator &sim, power::GpsModel &gps)
        : sim_(sim), gps_(gps) {}

    /** Sky view: false models indoors / urban canyon. */
    void
    setSignalGood(bool good)
    {
        gps_.setSignalGood(good);
    }

    /** Change the device velocity (m/s east, m/s north) from now on. */
    void
    setVelocity(double vx, double vy)
    {
        anchor_ = positionAt(sim_.now());
        anchorTime_ = sim_.now();
        vx_ = vx;
        vy_ = vy;
    }

    /** Ground-truth position at @p t (>= the last velocity change). */
    GeoPoint
    positionAt(sim::Time t) const
    {
        double dt = (t - anchorTime_).seconds();
        return GeoPoint{anchor_.x + vx_ * dt, anchor_.y + vy_ * dt};
    }

  private:
    sim::Simulator &sim_;
    power::GpsModel &gps_;
    GeoPoint anchor_;
    sim::Time anchorTime_;
    double vx_ = 0.0;
    double vy_ = 0.0;
};

} // namespace leaseos::env

#endif // LEASEOS_ENV_GPS_ENVIRONMENT_H
