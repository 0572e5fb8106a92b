#ifndef LEASEOS_MITIGATION_DOZE_H
#define LEASEOS_MITIGATION_DOZE_H

/**
 * @file
 * Android Doze baseline (§7.3's first comparison point).
 *
 * Doze is a *system-wide* idle mode: when the device has been unused
 * (screen off, stationary) for a long time, background apps' wakelocks,
 * Wi-Fi locks, GPS requests, sensor listeners, and alarms are deferred,
 * with periodic maintenance windows. Any non-trivial activity (motion,
 * screen) exits the mode — which is why it is "too conservative to be
 * triggered for most cases" (Table 5 footnote); the aggressive flag
 * reproduces the paper's adb-forced variant.
 */

#include "env/motion_model.h"
#include "os/system_server.h"
#include "sim/simulator.h"

namespace leaseos::mitigation {

/**
 * System-wide idle deferral controller.
 */
class DozeController
{
  public:
    /**
     * @p aggressive enters doze at start() and re-enters after a short
     * idle instead of the full threshold (the Table 5 '*' variant forced
     * via adb). Interruptions still exit doze — the reason aggressive
     * Doze trails LeaseOS.
     */
    DozeController(sim::Simulator &sim, os::SystemServer &server,
                   env::MotionModel &motion, bool aggressive = false);

    /** Arm idle detection (and force-enter if aggressive). */
    void start();

    bool dozing() const { return dozing_; }

  private:
    /** Unused time (screen off + no motion) before entering doze. */
    static constexpr sim::Time kIdleThreshold = sim::Time::fromMinutes(30.0);
    /** Idle needed to re-enter when aggressive. */
    static constexpr sim::Time kAggressiveReentry =
        sim::Time::fromMinutes(1.0);
    /** Spacing of maintenance windows while dozing. */
    static constexpr sim::Time kMaintenanceInterval =
        sim::Time::fromMinutes(15.0);
    /** Length of each maintenance window. */
    static constexpr sim::Time kMaintenanceWindow =
        sim::Time::fromSeconds(30.0);

    /** Force doze on right now (the adb command of §7.3). */
    void forceEnter();
    void enter();
    void exit();
    void applyFilters();
    void clearFilters();
    void scheduleIdleCheck();
    void idleCheck();
    void openMaintenanceWindow();
    void closeMaintenanceWindow();

    /** Whether a uid's background activity is currently allowed. */
    bool allowed(Uid uid) const;

    sim::Simulator &sim_;
    os::SystemServer &server_;
    env::MotionModel &motion_;
    bool aggressive_;

    bool started_ = false;
    bool dozing_ = false;
    bool maintenance_ = false;
    sim::Time screenOffSince_;
    bool screenOn_ = false;
};

} // namespace leaseos::mitigation

#endif // LEASEOS_MITIGATION_DOZE_H
