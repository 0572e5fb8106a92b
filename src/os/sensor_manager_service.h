#ifndef LEASEOS_OS_SENSOR_MANAGER_SERVICE_H
#define LEASEOS_OS_SENSOR_MANAGER_SERVICE_H

/**
 * @file
 * Sensor listener management (android SensorService analog).
 *
 * Like GPS, sensors are subscription-style: apps register listeners at a
 * sampling rate and the OS invokes them. The TapAndTurn and Riot bugs in
 * Table 5 keep sensor listeners registered while producing no user-visible
 * value — the Low-Utility pattern the custom utility counter of Fig. 6
 * exists for.
 */

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "os/binder.h"
#include "os/resource_service.h"
#include "power/sensor_model.h"

namespace leaseos::os {

/** App callback receiving sensor samples. */
class SensorEventListener
{
  public:
    virtual ~SensorEventListener() = default;
    virtual void onSensorEvent(power::SensorType type, double value) = 0;
};

/** One listener registration: the kernel object of a sensor subscription. */
struct SensorRegistration {
    struct Totals {
        double registeredSeconds = 0.0;
        std::uint64_t events = 0;
    };

    Uid uid = kInvalidUid;
    power::SensorType type = power::SensorType::Accelerometer;
    sim::Time rate;
    SensorEventListener *listener = nullptr;
    bool live = false; ///< registered (not unregistered)
    bool suspended = false;
    bool enabled = false;
    bool tickScheduled = false;
};

/**
 * Sensor registration service with interposition hooks.
 */
class SensorManagerService : public ResourceService<SensorRegistration>
{
  public:
    /** Ground-truth reading source (from env::MotionModel). */
    using ReadingFn = std::function<double(power::SensorType, sim::Time)>;

    SensorManagerService(sim::Simulator &sim, power::CpuModel &cpu,
                         power::SensorModel &sensors,
                         TokenAllocator &tokens);

    void setReadingFn(ReadingFn fn) { readingFn_ = std::move(fn); }

    // ---- App-facing API ------------------------------------------------

    TokenId
    registerListener(Uid uid, power::SensorType type, sim::Time rate,
                     SensorEventListener *listener)
    {
        return create({.uid = uid,
                       .type = type,
                       .rate = rate,
                       .listener = listener,
                       .live = true},
                      kResourceIpcLatency);
    }
    void
    unregisterListener(TokenId token)
    {
        setLive(token, false, kBinderIpcLatency);
    }
    bool isActive(TokenId token) const { return isLive(token); }

    // ---- Metrics --------------------------------------------------------

    /** Time @p uid has had an enabled registration outstanding. */
    double
    registeredSeconds(Uid uid)
    {
        return totalsNow(uid).registeredSeconds;
    }
    std::uint64_t
    eventCount(Uid uid) const
    {
        return records_.totals(uid).events;
    }

    /** Listener registrations @p uid still has active (not unregistered). */
    std::vector<TokenId>
    activeRegistrations(Uid uid) const
    {
        return records_.liveTokens(uid);
    }

  private:
    void accrue(double dt) override;
    void apply() override;
    void deliver(SensorRegistration &reg) override;

    power::SensorModel &sensors_;
    ReadingFn readingFn_;

    /** Hardware registrations we currently hold, to diff on apply(). */
    std::map<TokenId, std::pair<power::SensorType, Uid>> hwRegs_;
};

} // namespace leaseos::os

#endif // LEASEOS_OS_SENSOR_MANAGER_SERVICE_H
