#ifndef LEASEOS_LEASE_LEASE_STAT_H
#define LEASEOS_LEASE_LEASE_STAT_H

/**
 * @file
 * Per-term resource-usage statistics (§3.3 "lease stat").
 *
 * A proxy collects one LeaseStat per lease term; the behaviour classifier
 * turns it into a BehaviorType via the three §2.4 metrics:
 *   request success ratio  = 1 - failedRequestSeconds/requestSeconds (FAB)
 *   utilisation ratio      = usageSeconds/holdingSeconds             (LHB)
 *   utility rate           = utilityScore                            (LUB)
 */

#include <cstdint>

#include "sim/time.h"

namespace leaseos::lease {

/**
 * Cumulative service counters a lease term is measured against: the
 * counter fields of LeaseStat, zero where a resource measures nothing. A
 * term's stat is the field-by-field difference of two readings.
 */
struct TermCounters {
    double requestSeconds = 0.0;
    double failedRequestSeconds = 0.0;
    double holdingSeconds = 0.0;
    double usageSeconds = 0.0;
    std::uint64_t exceptions = 0;
    std::uint64_t uiUpdates = 0;
    std::uint64_t interactions = 0;
    double distanceMeters = 0.0;
    std::uint64_t acquires = 0;
};

/**
 * Raw usage measurements for one lease term.
 */
struct LeaseStat {
    sim::Time termStart;
    sim::Time termEnd;

    /** Time the app spent requesting (FAB numerator base, GPS only). */
    double requestSeconds = 0.0;
    /** Requesting time that failed to produce the resource (no fix). */
    double failedRequestSeconds = 0.0;

    /** Effective resource holding time within the term. */
    double holdingSeconds = 0.0;
    /**
     * Active use of the held resource: CPU seconds for wakelocks, transfer
     * seconds for Wi-Fi, bound-Activity-alive seconds for GPS/sensor (the
     * §3.3 listener-utilisation metric).
     */
    double usageSeconds = 0.0;

    /** Generic (possibly custom-hinted) utility, 0-100. */
    double utilityScore = 100.0;

    // Raw utility signals, kept for diagnostics and reporting.
    std::uint64_t exceptions = 0;
    std::uint64_t uiUpdates = 0;
    std::uint64_t interactions = 0;
    double distanceMeters = 0.0;
    std::uint64_t acquires = 0;

    bool heldAtTermEnd = false;

    /** Term wall length in seconds. */
    double
    termSeconds() const
    {
        return (termEnd - termStart).seconds();
    }

    /** Fraction of the term the resource was held. */
    double
    holdingRatio() const
    {
        double t = termSeconds();
        return t > 0.0 ? holdingSeconds / t : 0.0;
    }

    /** Fraction of holding time spent actually using the resource. */
    double
    utilizationRatio() const
    {
        return holdingSeconds > 0.0 ? usageSeconds / holdingSeconds : 0.0;
    }

    /** Fraction of requesting time that produced the resource. */
    double
    requestSuccessRatio() const
    {
        return requestSeconds > 0.0
            ? 1.0 - failedRequestSeconds / requestSeconds
            : 1.0;
    }
};

} // namespace leaseos::lease

#endif // LEASEOS_LEASE_LEASE_STAT_H
