#ifndef LEASEOS_POWER_CPU_MODEL_H
#define LEASEOS_POWER_CPU_MODEL_H

/**
 * @file
 * CPU sleep/wake and execution model.
 *
 * This component implements the semantics wakelocks exist for: the CPU may
 * enter deep sleep only when nothing requires it awake (no enabled
 * wakelock, screen off, no alarm wake window). When it sleeps, app
 * execution is paused — AppProcess registers wake waiters here, which is
 * exactly the "execution is paused and will be resumed seamlessly later"
 * behaviour §4.6 relies on when a lease deferral removes the last wakelock.
 *
 * Power accounting:
 *  - deep sleep: a small floor attributed to the system;
 *  - awake-idle: the waste wakelocks cause, split across the uids keeping
 *    the CPU awake (this is what the buggy apps in Table 5 pay for);
 *  - busy: per-core active power attributed to the uid whose work is
 *    running.
 *
 * Per-uid CPU time (the sysTime+userTime the §2.1 profiler samples) is
 * integrated continuously.
 */

#include <cstdint>
#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "common/inline_vec.h"
#include "power/component.h"
#include "sim/inline_callback.h"
#include "sim/time.h"

namespace leaseos::power {

/**
 * CPU model: wake-source aggregation, task load, sleep gating.
 */
class CpuModel : public PowerComponent
{
  public:
    using WorkToken = std::uint64_t;

    CpuModel(sim::Simulator &sim, EnergyAccountant &accountant,
             const DeviceProfile &profile);

    // ---- Wake sources -------------------------------------------------

    /**
     * Uids of currently *enabled* wakelocks (from PowerManagerService),
     * sorted and without repeats; copied into storage kept between calls.
     */
    void setWakelockOwners(std::span<const Uid> owners);

    /**
     * Uids with open audio sessions (from AudioSessionService), sorted
     * and without repeats: an open session keeps the owning process
     * runnable, like a wakelock.
     */
    void setAudioSessionOwners(std::span<const Uid> owners);

    /** Screen state; a lit screen always keeps the CPU awake. */
    void setScreenOn(bool on);

    /**
     * Keep the CPU awake for @p duration regardless of wakelocks (RTC
     * alarm wake window). Nested windows extend the awake period.
     */
    void addWakeWindow(sim::Time duration);

    bool isAwake() const { return awake_; }

    // ---- Execution -----------------------------------------------------

    /**
     * Begin a unit of CPU work for @p uid at @p load cores (0..cores).
     * The work draws power and accrues cpuSeconds until endWork().
     */
    WorkToken beginWork(Uid uid, double load);

    void endWork(WorkToken token);

    /** Convenience: beginWork now, endWork after @p duration. */
    void runWorkFor(Uid uid, double load, sim::Time duration);

    /** Sum of current task loads (cores). */
    double currentLoad() const;

    // ---- DVFS (§8 extension) --------------------------------------------

    /**
     * Enable frequency scaling with an ondemand-style governor: the
     * operating point follows the instantaneous load (low load → low
     * frequency → superlinear power savings). Off by default so the base
     * reproduction matches the paper's constant-frequency assumption.
     */
    void setDvfsEnabled(bool enabled);
    bool dvfsEnabled() const { return dvfsEnabled_; }

    /**
     * Frequency-normalised busy seconds: cpuSeconds weighted by the
     * relative frequency they ran at — the "device state factor"
     * adjustment §8 calls for when judging utilisation under DVFS.
     */
    double normalizedCpuSeconds(Uid uid);

    // ---- Wake listeners -------------------------------------------------

    /**
     * Invoke @p fn the next time the CPU is awake. If the CPU is already
     * awake the callback fires via a zero-delay event (not inline, to keep
     * caller stacks simple).
     */
    void notifyOnWake(sim::InlineCallback fn);

    /** Persistent listener invoked on every awake/asleep transition. */
    void addStateListener(std::function<void(bool awake)> fn);

    // ---- Accounting -----------------------------------------------------

    /** Busy CPU seconds attributed to @p uid (the profiler's CPU usage). */
    double cpuSeconds(Uid uid);

    /** Total time the CPU has spent awake, in seconds. */
    double awakeSeconds();

    /**
     * Hash wake sources, tasks, DVFS, and the per-uid integrals
     * (DESIGN.md §11). Parked wake waiters are counted but not hashed
     * (they are closures).
     */
    void digestState(sim::StateDigest &d) const;

  private:
    struct Task {
        Uid uid;
        double load;
    };

    /** Integrate cpu-seconds / awake-seconds up to now. */
    void advance();

    /** Recompute the awake flag; fire listeners and flush waiters. */
    void updateWakeState();

    /** Push both channels' current shares into the accountant. */
    void updatePower();

    /** Push the busy channel's shares (all that work or DVFS changes). */
    void updateBusyPower();

    ChannelId idleChannel_;
    ChannelId busyChannel_;

    std::vector<Uid> wakelockOwners_;
    std::vector<Uid> audioOwners_;
    bool screenOn_ = false;
    int wakeWindows_ = 0;
    bool awake_ = false;

    /**
     * Running tasks in token (= insertion) order. Tokens only grow and
     * erase is order-preserving, so iteration order — and with it the
     * floating-point accumulation order in advance() — matches the old
     * std::map-by-token layout while staying allocation-free for the
     * common handful of concurrent tasks.
     */
    common::InlineVec<std::pair<WorkToken, Task>, 8> tasks_;
    WorkToken nextToken_ = 1;

    std::vector<sim::InlineCallback> wakeWaiters_;
    std::vector<std::function<void(bool)>> stateListeners_;

    /** Re-evaluate the governor's operating point from current load. */
    void updateGovernor();

    /** Frequency factor of the current operating point (1.0 w/o DVFS). */
    double currentFreq() const;

    /** Power factor of the current operating point (1.0 w/o DVFS). */
    double currentPowerFactor() const;

    bool dvfsEnabled_ = false;
    /** Current operating-point index into profile().dvfsLevels. */
    std::size_t dvfsLevel_ = 0;

    sim::Time lastAdvance_;
    /** Per-uid accumulators, first-seen order, looked up by linear scan. */
    UidTotals cpuSeconds_;
    UidTotals normalizedCpuSeconds_;
    double awakeSeconds_ = 0.0;
};

} // namespace leaseos::power

#endif // LEASEOS_POWER_CPU_MODEL_H
