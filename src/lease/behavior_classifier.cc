#include "lease/behavior_classifier.h"

namespace leaseos::lease {

namespace {

// The paper's characterisation: ultralow utilisation is below 1-5 %, and
// utility scores run from 0 to 100.

/** Requesting must cover at least this fraction of the term (FAB). */
constexpr double kFabMinRequestRatio = 0.3;
/** Success ratio below this is "rarely gets it" (FAB). */
constexpr double kFabMaxSuccessRatio = 0.2;
/** Holding must cover at least this fraction of the term (LHB/LUB). */
constexpr double kMinHoldingRatio = 0.5;
/** Utilisation below this is ultralow (LHB). */
constexpr double kLhbMaxUtilization = 0.05;
/** Utility score below this marks Low-Utility (LUB). */
constexpr double kLubMaxUtilityScore = 20.0;
/** Usage above this fraction of the term marks heavy use (EUB). */
constexpr double kEubMinUsageRatio = 0.5;

} // namespace

BehaviorType
classify(ResourceType rtype, const LeaseStat &stat)
{
    double term = stat.termSeconds();
    if (term <= 0.0) return BehaviorType::Normal;

    // FAB only exists for resources whose acquisition can fail for long
    // stretches — GPS (Table 1: wakelock/sensor requests succeed almost
    // immediately).
    if (rtype == ResourceType::Gps) {
        double request_ratio = stat.requestSeconds / term;
        if (request_ratio >= kFabMinRequestRatio &&
            stat.requestSuccessRatio() <= kFabMaxSuccessRatio) {
            return BehaviorType::FrequentAsk;
        }
    }

    // The remaining classes require the resource to actually be held for
    // a substantial part of the term.
    if (stat.holdingRatio() < kMinHoldingRatio) return BehaviorType::Normal;

    if (stat.utilizationRatio() < kLhbMaxUtilization)
        return BehaviorType::LongHolding;

    if (stat.utilityScore < kLubMaxUtilityScore)
        return BehaviorType::LowUtility;

    // Held and well-utilised with real utility: heavy use is Excessive-Use
    // when the usage itself dominates the term; otherwise plain normal.
    if (stat.usageSeconds / term >= kEubMinUsageRatio)
        return BehaviorType::ExcessiveUse;

    return BehaviorType::Normal;
}

} // namespace leaseos::lease
