#ifndef LEASEOS_POWER_SENSOR_MODEL_H
#define LEASEOS_POWER_SENSOR_MODEL_H

/**
 * @file
 * Sensor hub power model.
 *
 * Sensors draw power while any listener is registered (the TapAndTurn #28
 * bug: "polls sensors even when screen is off"). Each sensor type's draw is
 * split across the distinct uids that hold an enabled registration of it.
 */

#include <array>
#include <span>
#include <utility>

#include "common/inline_vec.h"
#include "power/component.h"

namespace leaseos::power {

/** Sensor types the simulator models. */
enum class SensorType { Accelerometer, Orientation, Gyroscope, Light };

/**
 * Sensor hub power model with per-uid attribution.
 */
class SensorModel : public PowerComponent
{
  public:
    SensorModel(sim::Simulator &sim, EnergyAccountant &accountant,
                const DeviceProfile &profile);

    /**
     * The enabled registrations as (type, uid) pairs, from the OS service;
     * a uid that registers one type twice draws one share of it.
     */
    void setUses(std::span<const std::pair<SensorType, Uid>> uses);

    /** Power draw of one sensor type from the device profile. */
    double sensorMw(SensorType type) const;

    /** Hash the registrations (DESIGN.md §11). */
    void digestState(sim::StateDigest &d) const;

  private:
    /** One type's registered uids, ascending and without repeats. */
    using UserList = common::InlineVec<Uid, 4>;

    void updatePower();

    UserList &
    usersFor(SensorType t)
    {
        return uses_[static_cast<std::size_t>(t)];
    }

    ChannelId channel_;
    /** Indexed by SensorType; uid-sorted lists keep attribution (and its
        floating-point accumulation order) identical to the old nested
        std::map while keeping the handoff allocation-free. */
    std::array<UserList, 4> uses_;
};

} // namespace leaseos::power

#endif // LEASEOS_POWER_SENSOR_MODEL_H
