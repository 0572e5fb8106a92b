#ifndef LEASEOS_POWER_BATTERY_H
#define LEASEOS_POWER_BATTERY_H

/**
 * @file
 * Battery state-of-charge model.
 *
 * The battery drains by whatever the EnergyAccountant integrates. It exists
 * for the end-to-end battery-life experiment (§7.6: 12 h without leases vs
 * 15 h with LeaseOS) and for reporting state of charge during long runs.
 */

#include "power/device_profile.h"
#include "power/energy_accountant.h"

namespace leaseos::power {

/**
 * Tracks state-of-charge against the accountant's running total.
 */
class Battery
{
  public:
    Battery(const EnergyAccountant &accountant, const DeviceProfile &profile)
        : accountant_(accountant),
          capacityMj_(profile.batteryEnergyMj()) {}

    /** Energy drained so far (mJ). */
    double
    drainedMj() const
    {
        return accountant_.totalEnergyMj() - baseMj_;
    }

    bool empty() const { return drainedMj() >= capacityMj_; }

    /** Treat the current accountant total as "fully charged". */
    void
    recharge()
    {
        baseMj_ = accountant_.totalEnergyMj();
    }

    /** Hash the recharge baseline (DESIGN.md §11). */
    void digestState(sim::StateDigest &d) const;

  private:
    const EnergyAccountant &accountant_;
    double capacityMj_;
    double baseMj_ = 0.0;
};

} // namespace leaseos::power

#endif // LEASEOS_POWER_BATTERY_H
