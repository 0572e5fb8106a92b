#ifndef LEASEOS_LEASE_BEHAVIOR_CLASSIFIER_H
#define LEASEOS_LEASE_BEHAVIOR_CLASSIFIER_H

/**
 * @file
 * Term-stat → behaviour-type classification (§2.4).
 *
 * The classifier implements the paper's observation that misbehaviour
 * shows as one of three ratios dropping to a very low value:
 *   FAB: request success ratio ≈ 0 while requesting is frequent/long;
 *   LHB: utilisation ratio ultralow (< ~5 %) while held most of the term;
 *   LUB: utilisation fine but utility score low;
 *   EUB: held and used heavily with real utility (not deferred).
 */

#include "lease/behavior.h"
#include "lease/lease_stat.h"
#include "lease/resource_type.h"

namespace leaseos::lease {

/** Classify one term's stats for a resource of type @p rtype. */
BehaviorType classify(ResourceType rtype, const LeaseStat &stat);

} // namespace leaseos::lease

#endif // LEASEOS_LEASE_BEHAVIOR_CLASSIFIER_H
