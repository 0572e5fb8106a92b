#ifndef LEASEOS_POWER_ENERGY_ACCOUNTANT_H
#define LEASEOS_POWER_ENERGY_ACCOUNTANT_H

/**
 * @file
 * Per-component, per-app energy bookkeeping.
 *
 * This is the simulator's replacement for the paper's measurement rigs:
 * the Monsoon power monitor (system-wide power) and the Qualcomm Trepn
 * profiler (per-app power). Every power-drawing hardware component owns one
 * or more *channels*; whenever a channel's power or attribution changes the
 * accountant integrates the elapsed interval, so energy totals are exact,
 * not sampled.
 *
 * Attribution follows the way Trepn/Android batterystats assign blame: a
 * channel's draw is divided across the uids responsible for it (wakelock
 * holders, GPS requestors, the app whose code is on-CPU, ...).
 *
 * Storage is flat and dense (DESIGN.md §8): channels are indexed directly
 * by ChannelId, a channel's shares live in a small inline array that only
 * spills past 4 uids, and per-uid integrals sit in dense tables indexed by
 * a uid *slot* interned on first sight. Every share caches its uid's slot,
 * so the per-event integrate loop is pure array arithmetic — no maps, no
 * hashing, no allocation.
 *
 * Readers return *synced* state: call sync() first when you need values
 * up to the current instant (energy accrues continuously between events).
 */

#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/ids.h"
#include "common/inline_vec.h"
#include "obs/metric_registry.h"
#include "sim/simulator.h"
#include "sim/time.h"

namespace leaseos::power {

using ChannelId = std::uint32_t;

/**
 * Exact (event-driven) energy integrator with per-uid attribution.
 *
 * Units: power in milliwatts, energy in millijoules (mW·s).
 */
class EnergyAccountant
{
  public:
    explicit EnergyAccountant(sim::Simulator &sim)
        : sim_(sim), metrics_(obs::MetricRegistry::current())
    {
    }
    EnergyAccountant(const EnergyAccountant &) = delete;
    EnergyAccountant &operator=(const EnergyAccountant &) = delete;

    /** Create a named power channel (one per component power source). */
    ChannelId makeChannel(std::string name);

    /**
     * Set a channel's draw as explicit per-uid shares.
     * Integrates the previous setting up to now first. The span contents
     * are copied into the channel's inline share array — callers can pass
     * a view of their own persistent storage and never materialize a
     * temporary vector.
     */
    void setPowerShares(ChannelId ch,
                        std::span<const std::pair<Uid, double>> sharesMw);

    /** Vector convenience overload (tests, cold callers). */
    void
    setPowerShares(ChannelId ch,
                   const std::vector<std::pair<Uid, double>> &sharesMw)
    {
        setPowerShares(ch, std::span<const std::pair<Uid, double>>(
                               sharesMw.data(), sharesMw.size()));
    }

    /**
     * Set a channel's total draw split equally across @p owners
     * (attributed to the system uid when @p owners is empty). Duplicate
     * owners receive one equal share each, preserving the caller's order.
     */
    void setPower(ChannelId ch, double totalMw, std::span<const Uid> owners);

    /** Braced-list convenience: `setPower(ch, mw, {kSystemUid})`. */
    void
    setPower(ChannelId ch, double totalMw, std::initializer_list<Uid> owners)
    {
        setPower(ch, totalMw,
                 std::span<const Uid>(owners.begin(), owners.size()));
    }

    /** Bring all integrals up to the current simulation time. */
    void sync();

    // ---- Readers over synced state --------------------------------------
    // Energy accrues continuously; these return integrals as of the last
    // sync(). Call sync() first (it is idempotent and O(channels)) when a
    // value up to the current instant is needed.

    /** Total energy drawn since construction, in millijoules. */
    double totalEnergyMj() const { return totalMj_; }

    /** Energy attributed to one uid, in millijoules. */
    double uidEnergyMj(Uid uid) const;

    /** Energy drawn through one channel, in millijoules. */
    double channelEnergyMj(ChannelId ch) const;

    /** Energy for one uid on one channel, in millijoules. */
    double uidChannelEnergyMj(Uid uid, ChannelId ch) const;

    /** Instantaneous total draw in mW. */
    double totalPowerMw() const;

    /** Instantaneous draw attributed to @p uid in mW. */
    double uidPowerMw(Uid uid) const;

    const std::string &channelName(ChannelId ch) const;
    std::size_t channelCount() const { return channels_.size(); }

    /**
     * Find a channel by name (e.g. "cpu_idle").
     * @retval channelCount() when no channel has that name.
     */
    ChannelId channelByName(const std::string &name) const;

    /** All uids that ever drew power (sorted, for report iteration). */
    std::vector<Uid> knownUids() const;

    /**
     * Serialize the raw integrals, uid-slot table, and current shares as
     * an "energy" section (DESIGN.md §11). Deliberately does NOT sync()
     * first: splitting an integration interval changes floating-point
     * sums, so a checkpoint must capture the integrals exactly as the
     * running device holds them.
     */
    void saveState(sim::CheckpointWriter &w) const;

  private:
    /** One attribution entry; the uid's dense slot is cached at set time. */
    struct Share {
        Uid uid;
        std::uint32_t slot;
        double mw;
    };

    struct Channel {
        std::string name;
        common::InlineVec<Share, 4> shares;
        double energyMj = 0.0;
        /** Per-uid integral, indexed by uid slot (grown at share-set). */
        std::vector<double> uidMj;
        /** Registry gauge "power.<name>.mj" (telemetry runs only). */
        obs::MetricId metric = obs::kInvalidMetricId;
    };

    /** Dense slot for @p uid, interning it on first sight. */
    std::uint32_t uidSlot(Uid uid);

    /** Integrate one channel from lastSync_ to now. */
    void integrate(Channel &ch, double dtSeconds);

    sim::Simulator &sim_;
    /** Telemetry (nullptr unless a registry was installed for the run). */
    obs::MetricRegistry *metrics_;
    std::vector<Channel> channels_;
    sim::Time lastSync_;
    double totalMj_ = 0.0;
    std::vector<Uid> uids_;    ///< slot -> uid, first-seen order
    std::vector<double> uidMj_; ///< per-uid integral, indexed by slot
};

} // namespace leaseos::power

#endif // LEASEOS_POWER_ENERGY_ACCOUNTANT_H
