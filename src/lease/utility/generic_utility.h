#ifndef LEASEOS_LEASE_UTILITY_GENERIC_UTILITY_H
#define LEASEOS_LEASE_UTILITY_GENERIC_UTILITY_H

/**
 * @file
 * Generic utility scoring (§3.3).
 *
 * LeaseOS is app-oblivious: without app changes it estimates how much user
 * value a term's resource consumption produced, using conservative
 * heuristics the paper names explicitly:
 *  - frequency of severe exceptions → low wakelock utility (the K-9
 *    disconnected retry storm);
 *  - distance moved → GPS utility (a stationary device gains nothing from
 *    a streak of identical fixes);
 *  - UI updates and user interactions → high utility for any resource.
 *
 * Apps may register an IUtilityCounter; its score is taken as a hint only
 * when the generic score is not already very low (abuse guard).
 */

#include <cstdint>

#include "common/utility_counter.h"
#include "lease/lease_stat.h"
#include "lease/resource_type.h"

namespace leaseos::lease::utility {

/** Raw per-term signals feeding the generic score. */
struct Signals {
    double termSeconds = 0.0;
    double usageSeconds = 0.0;
    std::uint64_t exceptions = 0;   ///< severe exceptions this term
    std::uint64_t uiUpdates = 0;
    std::uint64_t interactions = 0;
    double distanceMeters = 0.0;
};

/** Neutral score used when there is no evidence either way. */
constexpr double kNeutralScore = 50.0;

/** Generic scores below this bar cannot be overridden by custom hints. */
constexpr double kVeryLowBar = 10.0;

/** Compute the generic 0-100 utility for one term. */
double genericScore(ResourceType rtype, const Signals &signals);

/**
 * The generic utility of a term from its stat. Audible output is its own
 * evidence; a silent open audio session only has whatever UI evidence the
 * app produces, so it is scored as a wakelock.
 */
double termScore(ResourceType rtype, const LeaseStat &stat);

/**
 * Final utility: the custom counter's score when one is registered and
 * the generic score is not too low to trust the app (§3.3).
 */
double combine(double generic, IUtilityCounter *custom);

} // namespace leaseos::lease::utility

#endif // LEASEOS_LEASE_UTILITY_GENERIC_UTILITY_H
