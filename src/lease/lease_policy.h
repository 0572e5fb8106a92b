#ifndef LEASEOS_LEASE_LEASE_POLICY_H
#define LEASEOS_LEASE_LEASE_POLICY_H

/**
 * @file
 * Lease policy parameters (§5).
 *
 * Defaults follow the paper: 5 s initial term, 25 s deferral (λ = 5),
 * adaptive term growth for well-behaved leases (12 normal terms → 1 min,
 * 120 → 5 min, any misbehaviour → back to 5 s).
 *
 * Deferral escalation is our documented reading of the paper's
 * "avg(τ)" formulation (§5.1 defines λ with an *average* deferral): on
 * consecutive misbehaving terms τ doubles up to a cap, which is what
 * drives persistent bugs beyond the single-cycle 1/(1+λ) bound to the
 * ~92-98 % reductions of Table 5. bench_ablation_policy quantifies it.
 */

#include "lease/resource_type.h"
#include "sim/time.h"

namespace leaseos::lease {

/**
 * The lease manager's policy. Only the six fields that an experiment
 * varies are settable: initialTerm and deferralInterval (Fig. 9,
 * Fig. 12), adaptiveTerm and escalateDeferral (Fig. 9, Fig. 12,
 * bench_ablation_policy), and gpsConfirmTerms and rememberMisbehavior
 * (bench_ablation_policy). The static constexpr members are the paper's
 * fixed numbers.
 */
struct LeasePolicy {
    /** Initial (and post-misbehaviour) lease term. */
    sim::Time initialTerm = sim::Time::fromSeconds(5.0);

    /** Base deferral interval τ. */
    sim::Time deferralInterval = sim::Time::fromSeconds(25.0);

    // ---- Common-case optimisation (§5.2) -------------------------------
    bool adaptiveTerm = true;
    /** Consecutive normal terms → mediumTerm. */
    static constexpr int mediumTermAfter = 12;
    static constexpr sim::Time mediumTerm = sim::Time::fromMinutes(1.0);
    /** Consecutive normal terms → longTerm. */
    static constexpr int longTermAfter = 120;
    static constexpr sim::Time longTerm = sim::Time::fromMinutes(5.0);

    // ---- Deferral escalation ---------------------------------------------
    bool escalateDeferral = true;
    static constexpr double deferralGrowth = 2.0;
    static constexpr sim::Time maxDeferral = sim::Time::fromMinutes(5.0);

    /**
     * Misbehaviour on subscription-style resources (GPS, sensors) must
     * persist (same class) for this many consecutive terms before
     * deferral. Their utility arrives episodically: a GPS cold start
     * spends a full time-to-first-fix "asking" (looks like FAB for one
     * short term), the first fix has no distance yet (looks like LUB),
     * and a game's sensor feed shows UI evidence only at the next touch.
     * §4.3's decisions over "the current term and last few terms" absorb
     * these. Other resources defer on the first misbehaving term (the
     * paper's n = 1 analysis in §5.1).
     */
    int gpsConfirmTerms = 2;
    static constexpr int sensorConfirmTerms = 2;

    /** Confirmation terms required before deferring a resource type. */
    int
    confirmTermsFor(ResourceType rtype) const
    {
        if (rtype == ResourceType::Gps) return gpsConfirmTerms;
        if (rtype == ResourceType::Sensor ||
            rtype == ResourceType::Bluetooth) {
            return sensorConfirmTerms;
        }
        return 1;
    }

    // ---- §8 extension: app usage history --------------------------------
    /**
     * Carry misbehaviour reputation across kernel-object churn: when an
     * app's lease dies while misbehaving and the app re-creates the same
     * resource type shortly after (the BetterWeather re-request pattern),
     * the new lease inherits the escalation counter instead of starting
     * fresh. This implements the paper's §8 plan to "adjust the policies
     * dynamically based on app usage history"; off by default to keep the
     * base system faithful. bench_ablation_policy quantifies it.
     */
    bool rememberMisbehavior = false;

    /** How long a dead lease's bad reputation lingers. */
    static constexpr sim::Time reputationWindow = sim::Time::fromMinutes(3.0);

    /** Term length for a lease with @p consecutiveNormal good terms. */
    sim::Time
    termFor(int consecutiveNormal) const
    {
        if (!adaptiveTerm) return initialTerm;
        if (consecutiveNormal >= longTermAfter) return longTerm;
        if (consecutiveNormal >= mediumTermAfter) return mediumTerm;
        return initialTerm;
    }

    /** Deferral for the @p consecutiveMisbehaved-th misbehaving term. */
    sim::Time
    deferralFor(int consecutiveMisbehaved) const
    {
        if (!escalateDeferral || consecutiveMisbehaved <= 1)
            return deferralInterval;
        sim::Time tau = deferralInterval;
        for (int i = 1; i < consecutiveMisbehaved; ++i) {
            tau = tau * deferralGrowth;
            if (tau >= maxDeferral) return maxDeferral;
        }
        return tau;
    }
};

} // namespace leaseos::lease

#endif // LEASEOS_LEASE_LEASE_POLICY_H
