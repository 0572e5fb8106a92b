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
 * accountant integrates that channel's elapsed interval, so energy totals
 * are exact, not sampled.
 *
 * Attribution follows the way Trepn/Android batterystats assign blame: a
 * channel's draw is divided across the uids responsible for it (wakelock
 * holders, GPS requestors, the app whose code is on-CPU, ...).
 *
 * Storage is flat and dense (DESIGN.md §8): channels are indexed directly
 * by ChannelId, a channel's shares live in a small inline array that only
 * spills past 4 uids, and per-uid integrals sit in dense tables indexed by
 * a uid *slot* interned on first sight. Every share caches its uid's slot,
 * so the per-event commit is pure array arithmetic — no maps, no hashing,
 * no allocation.
 *
 * Commits are per channel and event-sparse: each channel keeps its own
 * commit time, a set whose shares equal the channel's current ones (same
 * uids, order and mW bits) returns at once, and any other set commits only
 * that channel's pending mw × dt. Readers are exact as of now and commit
 * nothing: each adds every covered channel's pending term from that
 * channel's own commit time, so the integrals depend only on the sequence
 * of power changes, never on who reads them or when.
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
    explicit EnergyAccountant(sim::Simulator &sim);
    EnergyAccountant(const EnergyAccountant &) = delete;
    EnergyAccountant &operator=(const EnergyAccountant &) = delete;

    /** Create a named power channel (one per component power source). */
    ChannelId makeChannel(std::string name);

    /**
     * Set a channel's draw as explicit per-uid shares.
     * Commits the channel's previous setting up to now first, unless the
     * shares are unchanged (then nothing happens). The span contents
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

    // ---- Readers, exact as of now ----------------------------------------

    /** Total energy drawn since construction, in millijoules. */
    double totalEnergyMj() const;

    /** Energy attributed to one uid, in millijoules. */
    double uidEnergyMj(Uid uid) const;

    /** Energy drawn through one channel, in millijoules. */
    double channelEnergyMj(ChannelId ch) const;

    /** Energy for one uid on one channel, in millijoules. */
    double uidChannelEnergyMj(Uid uid, ChannelId ch) const;

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
     * Hash the stored integrals, the uid-slot table and every channel's
     * commit time and current shares (DESIGN.md §11): together they fix
     * every read.
     */
    void digestState(sim::StateDigest &d) const;

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
        /** When the shares last changed; integrals are stored up to here. */
        sim::Time since;
        double energyMj = 0.0;
        /** Per-uid integral, indexed by uid slot (grown at share-set). */
        std::vector<double> uidMj;
    };

    /**
     * Make @p ch's shares the @p n pairs `shareAt(i)` returns: a no-op
     * when they equal the current ones to the bit, else commit and replace.
     */
    template <typename ShareAt>
    void assign(ChannelId ch, std::size_t n, ShareAt shareAt);

    /** Integrate @p ch's shares from its commit time up to now. */
    void commit(ChannelId ch);

    /** Dense slot for @p uid, interning it on first sight. */
    std::uint32_t uidSlot(Uid uid);

    /** Slot of @p uid, or uids_.size() when it never drew power. */
    std::size_t findSlot(Uid uid) const;

    static constexpr std::size_t kAnySlot = ~std::size_t{0};

    /** @p mj plus the pending mw * dt of @p c's shares (of @p slot). */
    double addPending(double mj, const Channel &c, std::size_t slot) const;

    sim::Simulator &sim_;
    /** Telemetry (nullptr unless a registry was installed for the run). */
    obs::MetricRegistry *metrics_;
    std::vector<Channel> channels_;
    /** Commits made, read by the `power.channel_commits` counter. */
    std::uint64_t commits_ = 0;
    double totalMj_ = 0.0;
    std::vector<Uid> uids_;    ///< slot -> uid, first-seen order
    std::vector<double> uidMj_; ///< per-uid integral, indexed by slot
};

} // namespace leaseos::power

#endif // LEASEOS_POWER_ENERGY_ACCOUNTANT_H
