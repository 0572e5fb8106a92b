#ifndef LEASEOS_OS_ACTIVITY_MANAGER_SERVICE_H
#define LEASEOS_OS_ACTIVITY_MANAGER_SERVICE_H

/**
 * @file
 * Foreground, Activity and UI bookkeeping (android ActivityManagerService
 * analog).
 *
 * Tracks which app is foreground, Activity lifetimes, and UI activity
 * counters. Three lease inputs live here:
 *  - Activity-alive time: the GPS/sensor Long-Holding metric is the ratio
 *    of the bound Activity's lifetime to the listener's lifetime (§3.3);
 *  - UI updates and user interactions: generic high-utility signals;
 *  - foreground/background state: Doze and DefDroid only touch background
 *    apps.
 */

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "common/ids.h"
#include "os/service.h"

namespace leaseos::os {

/**
 * Process/Activity bookkeeping and UI telemetry.
 */
class ActivityManagerService : public Service
{
  public:
    ActivityManagerService(sim::Simulator &sim, power::CpuModel &cpu);

    // ---- Foreground -------------------------------------------------------

    /** Bring @p uid to the foreground (kInvalidUid = home screen). */
    void setForeground(Uid uid);
    Uid foreground() const { return foreground_; }
    bool isForeground(Uid uid) const { return uid == foreground_; }

    void addForegroundListener(std::function<void(Uid)> fn);

    // ---- Activity lifecycle ----------------------------------------------

    /** A visible Activity of @p uid started (counted; may nest). */
    void activityStarted(Uid uid);
    void activityStopped(Uid uid);
    bool hasLiveActivity(Uid uid) const;

    /** Total seconds @p uid has had at least one live Activity. */
    double activityAliveSeconds(Uid uid);

    // ---- UI telemetry ---------------------------------------------------

    void noteUiUpdate(Uid uid) { ++uiUpdates_[uid]; }
    void noteUserInteraction(Uid uid) { ++interactions_[uid]; }

    std::uint64_t uiUpdateCount(Uid uid) const;
    std::uint64_t userInteractionCount(Uid uid) const;

  private:
    void advance();

    struct AppRecord {
        int liveActivities = 0;
        double activitySeconds = 0.0;
    };

    std::map<Uid, AppRecord> apps_;
    Uid foreground_ = kInvalidUid;
    std::vector<std::function<void(Uid)>> foregroundListeners_;
    std::map<Uid, std::uint64_t> uiUpdates_;
    std::map<Uid, std::uint64_t> interactions_;
    sim::Time lastAdvance_;
};

} // namespace leaseos::os

#endif // LEASEOS_OS_ACTIVITY_MANAGER_SERVICE_H
