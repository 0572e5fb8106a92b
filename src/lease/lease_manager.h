#ifndef LEASEOS_LEASE_LEASE_MANAGER_H
#define LEASEOS_LEASE_LEASE_MANAGER_H

/**
 * @file
 * The lease manager (§4.3): creates, checks, renews, defers, and removes
 * leases for all resources granted to all apps, and makes the utilitarian
 * lease decisions at each term boundary.
 *
 * Decision loop per lease term (Fig. 5):
 *   term ends, resource not held        → INACTIVE
 *   term ends, held, Normal/EUB stats   → renew immediately (adaptive term)
 *   term ends, held, FAB/LHB/LUB stats  → DEFERRED for τ (resource
 *                                          temporarily revoked), then renew
 *   kernel object freed                 → DEAD (reaped)
 */

#include <cstdint>
#include <functional>
#include <map>
#include <utility>

#include "common/ids.h"
#include "common/utility_counter.h"
#include "obs/metric_registry.h"
#include "lease/lease.h"
#include "lease/lease_policy.h"
#include "lease/lease_table.h"
#include "lease/proxies/lease_proxy.h"
#include "os/binder.h"
#include "power/cpu_model.h"
#include "sim/simulator.h"
#include "sim/stats.h"

namespace leaseos::lease {

/**
 * System-wide lease management service (Table 3 API).
 */
class LeaseManagerService
{
  public:
    // Lease operation costs; the micro-benchmark of Table 4 measures
    // these. Creation/check are about one binder hop; the per-term update
    // includes utility-metric calculation and is costlier, but runs on the
    // system side without pausing app execution.
    static constexpr sim::Time kCreateLatency = sim::Time::fromMicros(357);
    static constexpr sim::Time kCheckAcceptLatency =
        sim::Time::fromMicros(498);
    static constexpr sim::Time kCheckRejectLatency =
        sim::Time::fromMicros(388);
    static constexpr sim::Time kUpdateLatency = sim::Time::fromMicros(4790);

    LeaseManagerService(sim::Simulator &sim, power::CpuModel &cpu,
                        LeasePolicy policy = {});
    LeaseManagerService(const LeaseManagerService &) = delete;
    LeaseManagerService &operator=(const LeaseManagerService &) = delete;

    /**
     * Build and keep the proxy for @p rtype: it watches @p service's
     * kernel objects (all of them, or those @p mine accepts) and measures
     * their terms with @p read. Add every type before its service holds
     * any object.
     */
    void addProxy(ResourceType rtype, os::ResourceServiceBase &service,
                  LeaseProxy::CounterReader read,
                  LeaseProxy::TokenFilter mine = nullptr);

    // ---- Table 3 interface ------------------------------------------------

    /** Create a lease for a kernel object; returns its descriptor. */
    LeaseId create(ResourceType rtype, os::TokenId token, Uid uid);

    /** Whether the lease is currently active. */
    bool check(LeaseId id);

    /** Renew an inactive/expired lease (approval path, §3.2). */
    bool renew(LeaseId id);

    /** Remove a lease whose kernel object died. */
    bool remove(LeaseId id);

    /** Proxy event note: the app acquired the resource. */
    void noteAcquire(LeaseId id);

    /** App-facing: register a custom utility counter (Fig. 6). */
    void setUtility(Uid uid, ResourceType rtype, IUtilityCounter *counter);

    // ---- Queries ---------------------------------------------------------

    const Lease *lease(LeaseId id) const { return table_.find(id); }
    const LeaseTable &table() const { return table_; }
    LeaseTable &table() { return table_; }
    const LeasePolicy &policy() const { return policy_; }

    std::size_t activeLeases() const
    {
        return table_.countInState(LeaseState::Active);
    }
    std::uint64_t totalCreated() const { return table_.totalCreated(); }
    std::uint64_t totalDeferrals() const { return totalDeferrals_; }
    std::uint64_t totalRenewals() const { return totalRenewals_; }
    std::uint64_t termChecks() const { return termChecks_; }

    /** Lifespans (seconds) of leases that have died, for Fig. 11 stats. */
    const sim::Accumulator &lifespanStats() const { return lifespans_; }
    /** Term counts of leases that have died. */
    const sim::Accumulator &termCountStats() const { return termCounts_; }

    /** Behaviour classifications observed, by type (diagnostics). */
    std::uint64_t behaviorCount(BehaviorType b) const;

    /** Invoked after every term classification (benches subscribe). */
    void
    setTermObserver(
        std::function<void(const Lease &, const TermRecord &)> fn)
    {
        termObserver_ = std::move(fn);
    }

    /**
     * Hash the lease table, reputations, and counters into @p d
     * (DESIGN.md §11).
     */
    void digestState(sim::StateDigest &d) const;

  private:
    LeaseProxy &proxyFor(ResourceType rtype) { return proxies_.at(rtype); }
    IUtilityCounter *utilityFor(Uid uid, ResourceType rtype) const;

    /** Start a fresh term on an active lease and arm its expiry check. */
    void startTerm(Lease &lease, sim::Time length);
    /** Count a renewal and start the lease's next term of @p length. */
    void renewTerm(Lease &lease, sim::Time length);
    void onTermEnd(LeaseId id);
    void onDeferralEnd(LeaseId id);

    /** Lease accounting costs system CPU (Fig. 13's overhead). */
    void chargeAccounting(sim::Time latency);

    void recordDeath(Lease &lease);

    /** Credit realized deferral wall time as a lease leaves DEFERRED. */
    void settleDeferral(Lease &lease);

    /**
     * Intern this service's metrics in the run's registry (DESIGN §9):
     * its totals, verdict counts included, as bound counters; its
     * transitions, proxy decisions, utility charges and histograms as
     * push metrics.
     */
    void initMetrics();
    /**
     * Move @p lease to @p to, one Fig. 5 edge: the oracle checks it, then
     * it is counted and traced, then the state is written.
     */
    void transition(Lease &lease, LeaseState to);

    /** §8 extension: misbehaviour reputation outliving the lease. */
    struct Reputation {
        int consecutiveMisbehaved = 0;
        sim::Time diedAt;
    };

    sim::Simulator &sim_;
    power::CpuModel &cpu_;
    LeasePolicy policy_;
    LeaseTable table_;
    std::map<std::pair<Uid, ResourceType>, Reputation> reputations_;
    /** One proxy per resource type; map nodes keep their addresses. */
    std::map<ResourceType, LeaseProxy> proxies_;
    std::map<std::pair<Uid, ResourceType>, IUtilityCounter *> utilities_;
    std::function<void(const Lease &, const TermRecord &)> termObserver_;

    std::uint64_t totalDeferrals_ = 0;
    std::uint64_t totalRenewals_ = 0;
    std::uint64_t termChecks_ = 0;

    /** Telemetry (nullptr unless a registry was installed for the run). */
    obs::MetricRegistry *metrics_ = nullptr;
    struct Metrics {
        obs::MetricId toActive = obs::kInvalidMetricId;
        obs::MetricId toInactive = obs::kInvalidMetricId;
        obs::MetricId toDeferred = obs::kInvalidMetricId;
        obs::MetricId toDead = obs::kInvalidMetricId;
        obs::MetricId grant = obs::kInvalidMetricId;
        obs::MetricId deny = obs::kInvalidMetricId;
        obs::MetricId defer = obs::kInvalidMetricId;
        obs::MetricId utilityCharges = obs::kInvalidMetricId;
        obs::MetricId utilityScore = obs::kInvalidMetricId; // histogram
        obs::MetricId termSeconds = obs::kInvalidMetricId;  // histogram
        obs::MetricId deferralSeconds = obs::kInvalidMetricId; // histogram
    } m_;
    std::map<BehaviorType, std::uint64_t> behaviorCounts_;
    sim::Accumulator lifespans_;
    sim::Accumulator termCounts_;
};

} // namespace leaseos::lease

#endif // LEASEOS_LEASE_LEASE_MANAGER_H
