#ifndef LEASEOS_POWER_COMPONENT_H
#define LEASEOS_POWER_COMPONENT_H

/**
 * @file
 * Base class for power-drawing hardware components.
 *
 * A component owns one or more accountant channels and translates its
 * semantic state (awake, searching, playing, ...) into per-uid power
 * shares whenever that state changes.
 */

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/ids.h"
#include "common/inline_vec.h"
#include "power/device_profile.h"
#include "power/energy_accountant.h"
#include "sim/simulator.h"
#include "sim/state_digest.h"

namespace leaseos::power {

/**
 * Per-uid running totals in first-seen order (DESIGN.md §8): a flat
 * inline table scanned linearly, so a model that accrues per uid
 * allocates nothing once it has seen its uids. An event-path caller keeps
 * an entry's index, never a pointer: the table moves when it grows.
 */
using UidTotals = common::InlineVec<std::pair<Uid, double>, 8>;

/** Index of @p uid's entry in @p totals, appending a zero one if new. */
inline std::size_t
totalIndex(UidTotals &totals, Uid uid)
{
    for (std::size_t i = 0; i < totals.size(); ++i)
        if (totals[i].first == uid) return i;
    totals.emplace_back(uid, 0.0);
    return totals.size() - 1;
}

/** @p uid's total in @p totals; 0 for a uid that has no entry. */
inline double
totalOf(const UidTotals &totals, Uid uid)
{
    for (const auto &[u, total] : totals)
        if (u == uid) return total;
    return 0.0;
}

/** Hash @p totals: the entry count, then each uid and total in order. */
inline void
digestTotals(sim::StateDigest &d, const UidTotals &totals)
{
    d.u64(totals.size());
    for (const auto &[uid, total] : totals) {
        d.u32(static_cast<std::uint32_t>(uid));
        d.f64(total);
    }
}

/**
 * Common plumbing for hardware component models.
 */
class PowerComponent
{
  public:
    PowerComponent(sim::Simulator &sim, EnergyAccountant &accountant,
                   const DeviceProfile &profile, std::string name)
        : sim_(sim), accountant_(accountant), profile_(profile),
          name_(std::move(name)) {}

    virtual ~PowerComponent() = default;
    PowerComponent(const PowerComponent &) = delete;
    PowerComponent &operator=(const PowerComponent &) = delete;

    const std::string &name() const { return name_; }
    const DeviceProfile &profile() const { return profile_; }

  protected:
    sim::Simulator &sim_;
    EnergyAccountant &accountant_;
    DeviceProfile profile_;

  private:
    std::string name_;
};

} // namespace leaseos::power

#endif // LEASEOS_POWER_COMPONENT_H
