#include "lease/lease_manager.h"

#include "sim/state_digest.h"

#include "analysis/invariants.h"
#include "lease/utility/generic_utility.h"
#include "obs/trace.h"

namespace leaseos::lease {

namespace {

[[maybe_unused]] obs::TraceCode
transitionCode(LeaseState to)
{
    switch (to) {
      case LeaseState::Active: return obs::TraceCode::LeaseToActive;
      case LeaseState::Inactive: return obs::TraceCode::LeaseToInactive;
      case LeaseState::Deferred: return obs::TraceCode::LeaseToDeferred;
      case LeaseState::Dead: return obs::TraceCode::LeaseToDead;
    }
    return obs::TraceCode::LeaseToDead;
}

[[maybe_unused]] obs::TraceCode
classifyCode(BehaviorType b)
{
    switch (b) {
      case BehaviorType::Normal: return obs::TraceCode::ClassifyNormal;
      case BehaviorType::FrequentAsk:
        return obs::TraceCode::ClassifyFrequentAsk;
      case BehaviorType::LongHolding:
        return obs::TraceCode::ClassifyLongHolding;
      case BehaviorType::LowUtility:
        return obs::TraceCode::ClassifyLowUtility;
      case BehaviorType::ExcessiveUse:
        return obs::TraceCode::ClassifyExcessiveUse;
    }
    return obs::TraceCode::ClassifyNormal;
}

} // namespace

LeaseManagerService::LeaseManagerService(sim::Simulator &sim,
                                         power::CpuModel &cpu,
                                         LeasePolicy policy)
    : sim_(sim), cpu_(cpu), policy_(policy), classifier_(policy.thresholds),
      metrics_(obs::MetricRegistry::current())
{
    if (metrics_) initMetrics();
}

void
LeaseManagerService::initMetrics()
{
    obs::MetricRegistry &r = *metrics_;
    r.boundCounter("lease.created", [this] {
        return static_cast<double>(totalCreated());
    });
    r.boundCounter("lease.renewals", [this] {
        return static_cast<double>(totalRenewals_);
    });
    r.boundCounter("lease.deferrals", [this] {
        return static_cast<double>(totalDeferrals_);
    });
    r.boundCounter("lease.term_checks", [this] {
        return static_cast<double>(termChecks_);
    });
    m_.toActive = r.counter("lease.transitions.to_active");
    m_.toInactive = r.counter("lease.transitions.to_inactive");
    m_.toDeferred = r.counter("lease.transitions.to_deferred");
    m_.toDead = r.counter("lease.transitions.to_dead");
    m_.grant = r.counter("proxy.grant");
    m_.deny = r.counter("proxy.deny");
    m_.defer = r.counter("proxy.defer");
    m_.utilityCharges = r.counter("utility.charges");
    m_.utilityScore = r.histogram("utility.score");
    m_.termSeconds = r.histogram("lease.term_seconds");
    m_.deferralSeconds = r.histogram("lease.deferral_seconds");
    const BehaviorType kinds[] = {
        BehaviorType::Normal, BehaviorType::FrequentAsk,
        BehaviorType::LongHolding, BehaviorType::LowUtility,
        BehaviorType::ExcessiveUse};
    for (BehaviorType b : kinds)
        r.boundCounter(std::string("behavior.") + behaviorName(b),
                       [this, b] {
                           return static_cast<double>(behaviorCount(b));
                       });
}

void
LeaseManagerService::transition(Lease &lease, LeaseState to)
{
    LEASEOS_ORACLE(
        noteLeaseTransition(sim_.now(), lease.id, lease.state, to));
    if (metrics_) {
        switch (to) {
          case LeaseState::Active: metrics_->add(m_.toActive); break;
          case LeaseState::Inactive: metrics_->add(m_.toInactive); break;
          case LeaseState::Deferred: metrics_->add(m_.toDeferred); break;
          case LeaseState::Dead: metrics_->add(m_.toDead); break;
        }
    }
    // Payload carries the from-state so the timeline shows the full edge.
    LEASEOS_TRACE(emit(sim_.now(), obs::TraceCategory::Lease,
                       transitionCode(to), lease.uid, lease.id,
                       static_cast<std::uint64_t>(lease.state)));
    lease.state = to;
}

void
LeaseManagerService::renewTerm(Lease &lease, sim::Time length)
{
    ++lease.termIndex;
    ++totalRenewals_;
    startTerm(lease, length);
}

void
LeaseManagerService::addProxy(ResourceType rtype,
                              os::ResourceServiceBase &service,
                              LeaseProxy::CounterReader read,
                              LeaseProxy::TokenFilter mine)
{
    proxies_.try_emplace(rtype, *this, rtype, service, std::move(read),
                         std::move(mine));
}

IUtilityCounter *
LeaseManagerService::utilityFor(Uid uid, ResourceType rtype) const
{
    auto it = utilities_.find({uid, rtype});
    return it == utilities_.end() ? nullptr : it->second;
}

void
LeaseManagerService::chargeAccounting(sim::Time latency)
{
    // Lease bookkeeping runs on the system server; it costs a short burst
    // of one-core CPU attributed to the system uid. This is the entirety
    // of LeaseOS's power overhead (Fig. 13).
    cpu_.runWorkFor(kSystemUid, 1.0, latency);
}

LeaseId
LeaseManagerService::create(ResourceType rtype, os::TokenId token, Uid uid)
{
    chargeAccounting(kCreateLatency);
    Lease &lease = table_.create(rtype, token, uid);
    lease.createdAt = sim_.now();
    lease.state = LeaseState::Active;
    if (policy_.rememberMisbehavior) {
        auto it = reputations_.find({uid, rtype});
        if (it != reputations_.end()) {
            if (sim_.now() - it->second.diedAt <=
                policy_.reputationWindow) {
                // The app just churned the kernel object while in the
                // dog house: inherit the escalation counter (§8).
                lease.consecutiveMisbehaved =
                    it->second.consecutiveMisbehaved;
            } else {
                reputations_.erase(it);
            }
        }
    }
    LEASEOS_TRACE(emit(sim_.now(), obs::TraceCategory::Lease,
                       obs::TraceCode::LeaseCreated, lease.uid, lease.id,
                       static_cast<std::uint64_t>(lease.rtype)));
    startTerm(lease, policy_.termFor(0));
    return lease.id;
}

bool
LeaseManagerService::check(LeaseId id)
{
    Lease *lease = table_.find(id);
    bool ok = lease && lease->state == LeaseState::Active;
    chargeAccounting(ok ? kCheckAcceptLatency : kCheckRejectLatency);
    if (metrics_) metrics_->add(ok ? m_.grant : m_.deny);
    LEASEOS_TRACE(emit(sim_.now(), obs::TraceCategory::Proxy,
                       ok ? obs::TraceCode::ProxyGrant
                          : obs::TraceCode::ProxyDeny,
                       lease ? lease->uid : kInvalidUid, id));
    return ok;
}

bool
LeaseManagerService::renew(LeaseId id)
{
    Lease *lease = table_.find(id);
    if (!lease || lease->isDead()) return false;
    if (lease->state == LeaseState::Deferred) {
        // Renewal during deferral must wait out τ (that is the penalty).
        return false;
    }
    if (lease->state == LeaseState::Inactive) {
        transition(*lease, LeaseState::Active);
        renewTerm(*lease, policy_.termFor(lease->consecutiveNormal));
    }
    return true;
}

bool
LeaseManagerService::remove(LeaseId id)
{
    Lease *lease = table_.find(id);
    if (!lease) return false;
    if (lease->pendingEvent != sim::kInvalidEventId) {
        sim_.cancel(lease->pendingEvent);
        lease->pendingEvent = sim::kInvalidEventId;
    }
    // A lease killed mid-τ gets credit for the deferral time it actually
    // served — not the full scheduled τ (the historic over-count).
    if (lease->state == LeaseState::Deferred) settleDeferral(*lease);
    transition(*lease, LeaseState::Dead);
    recordDeath(*lease);
    table_.reap(id);
    return true;
}

void
LeaseManagerService::noteAcquire(LeaseId id)
{
    Lease *lease = table_.find(id);
    if (!lease || lease->isDead()) return;
    switch (lease->state) {
      case LeaseState::Inactive:
        // Use of a resource whose lease expired requires a manager
        // decision (§3.2).
        chargeAccounting(kCheckAcceptLatency);
        renew(id);
        break;
      case LeaseState::Deferred:
        // §4.6: the subsystem pretends the acquire succeeded; nothing to
        // do until the deferral ends.
        if (metrics_) metrics_->add(m_.defer);
        LEASEOS_TRACE(emit(sim_.now(), obs::TraceCategory::Proxy,
                           obs::TraceCode::ProxyDefer, lease->uid,
                           lease->id));
        break;
      case LeaseState::Active:
      case LeaseState::Dead:
        break;
    }
}

void
LeaseManagerService::setUtility(Uid uid, ResourceType rtype,
                                IUtilityCounter *counter)
{
    if (counter) {
        utilities_[{uid, rtype}] = counter;
    } else {
        utilities_.erase({uid, rtype});
    }
}

void
LeaseManagerService::startTerm(Lease &lease, sim::Time length)
{
    lease.termStart = sim_.now();
    lease.termLength = length;
    proxyFor(lease.rtype).beginTerm(lease);
    LeaseId id = lease.id;
    lease.pendingEvent =
        sim_.schedule(length, [this, id] { onTermEnd(id); });
}

void
LeaseManagerService::onTermEnd(LeaseId id)
{
    Lease *lease = table_.find(id);
    if (!lease || lease->state != LeaseState::Active) return;
    lease->pendingEvent = sim::kInvalidEventId;
    ++termChecks_;
    chargeAccounting(kUpdateLatency);
    if (metrics_)
        metrics_->observe(m_.termSeconds,
                          (sim_.now() - lease->termStart).seconds());

    LeaseProxy &proxy = proxyFor(lease->rtype);
    if (!proxy.resourceHeld(*lease)) {
        transition(*lease, LeaseState::Inactive);
        return;
    }

    // Collect the term's stats and apply the custom utility hint.
    LeaseStat stat = proxy.collectStat(*lease);
    stat.utilityScore = utility::combine(
        stat.utilityScore, utilityFor(lease->uid, lease->rtype));
    if (metrics_) {
        metrics_->add(m_.utilityCharges);
        metrics_->observe(m_.utilityScore, stat.utilityScore);
    }
    LEASEOS_TRACE(emit(sim_.now(), obs::TraceCategory::Utility,
                       obs::TraceCode::UtilityCharge, lease->uid, lease->id,
                       obs::payloadFromDouble(stat.utilityScore)));

    TermRecord record;
    record.stat = stat;
    record.behavior = classifier_.classify(lease->rtype, stat);
    ++behaviorCounts_[record.behavior];
    LEASEOS_TRACE(emit(sim_.now(), obs::TraceCategory::Classifier,
                       classifyCode(record.behavior), lease->uid, lease->id,
                       static_cast<std::uint64_t>(lease->termIndex)));
    lease->recordTerm(record.behavior);
    if (termObserver_) termObserver_(*lease, record);

    // Misbehaviour on GPS needs confirmation across consecutive terms of
    // the same class: cold-start fix acquisition mimics FAB and the first
    // fix has no distance yet, mimicking LUB (§4.3: decide on "the current
    // term and last few terms").
    bool punish = isMisbehavior(record.behavior);
    if (punish) {
        int required = policy_.confirmTermsFor(lease->rtype);
        // A lease already carrying misbehaviour (ongoing, or inherited
        // via the §8 reputation extension) needs no re-confirmation.
        if (lease->consecutiveMisbehaved > 0) required = 1;
        if (lease->behaviorRun < required) {
            // Suspected but unconfirmed: renew on a short term, without
            // normal-streak credit.
            lease->consecutiveNormal = 0;
            renewTerm(*lease, policy_.initialTerm);
            return;
        }
    }

    if (punish) {
        ++lease->consecutiveMisbehaved;
        lease->consecutiveNormal = 0;
        if (policy_.rememberMisbehavior) {
            // §8 extension: record the offence at deferral time so churned
            // replacements inherit it even if this object is merely
            // abandoned (never destroyed).
            reputations_[{lease->uid, lease->rtype}] =
                Reputation{lease->consecutiveMisbehaved, sim_.now()};
        }
        sim::Time tau = policy_.deferralFor(lease->consecutiveMisbehaved);
        transition(*lease, LeaseState::Deferred);
        lease->deferredAt = sim_.now();
        ++lease->deferrals;
        ++totalDeferrals_;
        proxy.onExpire(*lease);
        lease->pendingEvent =
            sim_.schedule(tau, [this, id] { onDeferralEnd(id); });
        return;
    }

    // Normal (or Excessive-Use, which LeaseOS does not penalise): renew
    // immediately; well-behaved leases earn longer terms (§5.2).
    ++lease->consecutiveNormal;
    lease->consecutiveMisbehaved = 0;
    renewTerm(*lease, policy_.termFor(lease->consecutiveNormal));
}

void
LeaseManagerService::onDeferralEnd(LeaseId id)
{
    Lease *lease = table_.find(id);
    if (!lease || lease->state != LeaseState::Deferred) return;
    lease->pendingEvent = sim::kInvalidEventId;
    settleDeferral(*lease);

    LeaseProxy &proxy = proxyFor(lease->rtype);
    proxy.onRenew(*lease); // restore the kernel object

    if (proxy.resourceHeld(*lease)) {
        transition(*lease, LeaseState::Active);
        // Back to the short initial term: the lease just misbehaved.
        renewTerm(*lease, policy_.initialTerm);
    } else {
        // The app released the resource during τ.
        transition(*lease, LeaseState::Inactive);
    }
}

void
LeaseManagerService::settleDeferral(Lease &lease)
{
    const double realized = (sim_.now() - lease.deferredAt).seconds();
    lease.totalDeferralSeconds += realized;
    if (metrics_) metrics_->observe(m_.deferralSeconds, realized);
    LEASEOS_ORACLE(noteDeferralSettled(sim_.now(), lease.id,
                                       lease.deferredAt, realized));
}

void
LeaseManagerService::recordDeath(Lease &lease)
{
    lifespans_.record((sim_.now() - lease.createdAt).seconds());
    termCounts_.record(static_cast<double>(lease.termIndex + 1));
    if (policy_.rememberMisbehavior && lease.consecutiveMisbehaved > 0) {
        reputations_[{lease.uid, lease.rtype}] =
            Reputation{lease.consecutiveMisbehaved, sim_.now()};
    }
}

std::uint64_t
LeaseManagerService::behaviorCount(BehaviorType b) const
{
    auto it = behaviorCounts_.find(b);
    return it == behaviorCounts_.end() ? 0 : it->second;
}


void
LeaseManagerService::digestState(sim::StateDigest &d) const
{
    table_.digestState(d);
    d.u64(reputations_.size());
    for (const auto &[key, rep] : reputations_) {
        d.u32(static_cast<std::uint32_t>(key.first));
        d.u8(static_cast<std::uint8_t>(key.second));
        d.i64(rep.consecutiveMisbehaved);
        d.time(rep.diedAt);
    }
    d.u64(totalDeferrals_);
    d.u64(totalRenewals_);
    d.u64(termChecks_);
    d.u64(behaviorCounts_.size());
    for (const auto &[behavior, count] : behaviorCounts_) {
        d.u8(static_cast<std::uint8_t>(behavior));
        d.u64(count);
    }
    lifespans_.digestState(d);
    termCounts_.digestState(d);
}

} // namespace leaseos::lease
