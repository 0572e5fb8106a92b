#include "analysis/invariants.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "lease/lease_table.h"
#include "obs/flight_recorder.h"
#include "os/binder.h"
#include "os/system_server.h"
#include "power/battery.h"
#include "power/energy_accountant.h"
#include "sim/simulator.h"

namespace leaseos::analysis {

namespace {

/** The thread's hook target (one Simulator/Device per thread). */
thread_local InvariantOracle *g_current = nullptr;

bool
relativeClose(double a, double b, double tolerance)
{
    double scale = std::max({std::fabs(a), std::fabs(b), 1.0});
    return std::fabs(a - b) <= tolerance * scale;
}

} // namespace

std::string
Violation::toString() const
{
    std::ostringstream out;
    out << "[leaseos-invariant] t=" << simTime.seconds() << "s";
    if (leaseId != lease::kInvalidLeaseId) out << " lease=" << leaseId;
    out << " check=" << check << ": " << detail;
    return out.str();
}

InvariantOracle::InvariantOracle(FailMode mode) : mode_(mode) {}

InvariantOracle::~InvariantOracle()
{
    if (installed_) uninstall();
}

void
InvariantOracle::install()
{
    if (installed_) return;
    previous_ = g_current;
    g_current = this;
    installed_ = true;
}

void
InvariantOracle::uninstall()
{
    if (!installed_) return;
    if (g_current == this) {
        g_current = previous_;
    } else {
        // Destroyed out of stack order (two devices on one thread torn
        // down in construction order): unlink from the chain instead.
        for (InvariantOracle *o = g_current; o; o = o->previous_) {
            if (o->previous_ == this) {
                o->previous_ = previous_;
                break;
            }
        }
    }
    previous_ = nullptr;
    installed_ = false;
}

InvariantOracle *
InvariantOracle::current()
{
    return g_current;
}

bool
InvariantOracle::legalTransition(lease::LeaseState from, lease::LeaseState to)
{
    using lease::LeaseState;
    if (to == LeaseState::Dead) return from != LeaseState::Dead;
    switch (from) {
      case LeaseState::Active:
        return to == LeaseState::Inactive || to == LeaseState::Deferred;
      case LeaseState::Inactive:
        return to == LeaseState::Active;
      case LeaseState::Deferred:
        return to == LeaseState::Active || to == LeaseState::Inactive;
      case LeaseState::Dead:
        return false; // DEAD is terminal
    }
    return false;
}

void
InvariantOracle::noteLeaseTransition(sim::Time now, lease::LeaseId id,
                                     lease::LeaseState from,
                                     lease::LeaseState to)
{
    ++transitionsChecked_;
    if (legalTransition(from, to)) return;
    std::ostringstream detail;
    detail << "illegal transition " << lease::leaseStateName(from) << " -> "
           << lease::leaseStateName(to)
           << " (not in the Fig. 5 transition relation)";
    report({"state-machine", now, id, detail.str()});
}

void
InvariantOracle::noteEventDispatch(sim::Time now, sim::Time eventTime)
{
    if (eventTime >= now) return;
    std::ostringstream detail;
    detail << "event scheduled for t=" << eventTime.seconds()
           << "s dispatched after virtual time already reached t="
           << now.seconds() << "s (clock ran backwards)";
    report({"time-monotonicity", now, lease::kInvalidLeaseId, detail.str()});
}

void
InvariantOracle::auditLeaseTable(const sim::Simulator &sim,
                                 const lease::LeaseTable &table,
                                 const os::TokenAllocator &tokens)
{
    using lease::LeaseState;
    if (!table.indexMatchesLeases()) {
        std::ostringstream detail;
        detail << "token index does not map each of the " << table.size()
               << " leases' tokens to that lease alone";
        report({"lease-table", sim.now(), lease::kInvalidLeaseId,
                detail.str()});
    }
    for (const lease::Lease *l : table.all()) {
        if (l->state == LeaseState::Dead) {
            // remove() reaps dead leases synchronously; one lingering in
            // the table means the reap path was bypassed.
            report({"lease-table", sim.now(), l->id,
                    "DEAD lease still present in the lease table"});
            continue;
        }
        if (!tokens.live(l->token)) {
            std::ostringstream detail;
            detail << lease::leaseStateName(l->state)
                   << " lease maps to token " << l->token
                   << " whose kernel object is no longer live";
            report({"lease-table", sim.now(), l->id, detail.str()});
        }
        bool armed = l->pendingEvent != sim::kInvalidEventId &&
                     sim.pending(l->pendingEvent);
        if (l->state == LeaseState::Active ||
            l->state == LeaseState::Deferred) {
            if (!armed) {
                std::ostringstream detail;
                detail << lease::leaseStateName(l->state)
                       << " lease has no pending "
                       << (l->state == LeaseState::Active ? "term-end"
                                                          : "deferral-end")
                       << " event armed";
                report({"lease-table", sim.now(), l->id, detail.str()});
            }
            // Strict: an audit may run before a term-end event due at
            // this very instant.
            if (l->state == LeaseState::Active &&
                l->termStart + l->termLength < sim.now()) {
                std::ostringstream detail;
                detail << "ACTIVE lease term ended at t="
                       << (l->termStart + l->termLength).seconds()
                       << "s (missed term-end event)";
                report({"lease-table", sim.now(), l->id, detail.str()});
            }
        } else if (armed) {
            report({"lease-table", sim.now(), l->id,
                    "INACTIVE lease still has a timer event armed"});
        }
    }
}

void
InvariantOracle::auditServiceTokens(sim::Time now, os::SystemServer &server)
{
    // Report the first record of each service whose token is retired.
    auto audit = [&](const char *service, const auto &records) {
        for (const auto &entry : records) {
            if (server.tokens().live(entry.first)) continue;
            report({"service-token", now, lease::kInvalidLeaseId,
                    std::string(service) +
                        " service: record for retired token " +
                        std::to_string(entry.first)});
            return;
        }
    };
    audit("power", server.powerManager().records());
    audit("location", server.locationManager().records());
    audit("sensor", server.sensorManager().records());
    audit("wifi", server.wifiManager().records());
    audit("audio", server.audioSessions().records());
    audit("bluetooth", server.bluetoothService().records());
}

void
InvariantOracle::auditEnergy(sim::Time now,
                             const power::EnergyAccountant &accountant,
                             const power::Battery &battery, double tolerance)
{
    double total = accountant.totalEnergyMj();

    double uidSum = 0.0;
    for (Uid uid : accountant.knownUids())
        uidSum += accountant.uidEnergyMj(uid);
    if (!relativeClose(uidSum, total, tolerance)) {
        std::ostringstream detail;
        detail << "per-uid energy sums to " << uidSum
               << " mJ but the accountant total is " << total << " mJ";
        report({"energy-conservation", now, lease::kInvalidLeaseId,
                detail.str()});
    }

    double channelSum = 0.0;
    for (power::ChannelId ch = 0; ch < accountant.channelCount(); ++ch) {
        double chMj = accountant.channelEnergyMj(ch);
        channelSum += chMj;
        double chUidSum = 0.0;
        for (Uid uid : accountant.knownUids())
            chUidSum += accountant.uidChannelEnergyMj(uid, ch);
        if (!relativeClose(chUidSum, chMj, tolerance)) {
            std::ostringstream detail;
            detail << "channel '" << accountant.channelName(ch)
                   << "' integrates " << chMj
                   << " mJ but its per-uid shares sum to " << chUidSum
                   << " mJ";
            report({"energy-conservation", now, lease::kInvalidLeaseId,
                    detail.str()});
        }
    }
    if (!relativeClose(channelSum, total, tolerance)) {
        std::ostringstream detail;
        detail << "per-channel energy sums to " << channelSum
               << " mJ but the accountant total is " << total << " mJ";
        report({"energy-conservation", now, lease::kInvalidLeaseId,
                detail.str()});
    }

    double drained = battery.drainedMj();
    // recharge() rebases the drain, so drained <= total always; negative
    // drain would mean energy flowed back out of the components.
    if (drained < -tolerance * std::max(total, 1.0) ||
        drained > total + tolerance * std::max(total, 1.0)) {
        std::ostringstream detail;
        detail << "battery drain " << drained
               << " mJ outside [0, total=" << total << " mJ]";
        report({"energy-conservation", now, lease::kInvalidLeaseId,
                detail.str()});
    }
}

void
InvariantOracle::checkAppTeardown(sim::Time now, os::SystemServer &server,
                                  Uid uid)
{
    for (os::TokenId token : server.powerManager().heldTokens(uid)) {
        std::ostringstream detail;
        detail << "app uid " << uid << " stopped while wakelock token "
               << token << " ('" << server.powerManager().tagOf(token)
               << "') is still held";
        report({"teardown-balance", now, lease::kInvalidLeaseId,
                detail.str()});
    }
    for (os::TokenId token : server.locationManager().activeRequests(uid)) {
        std::ostringstream detail;
        detail << "app uid " << uid
               << " stopped while GPS update request token " << token
               << " is still outstanding";
        report({"teardown-balance", now, lease::kInvalidLeaseId,
                detail.str()});
    }
    for (os::TokenId token :
         server.sensorManager().activeRegistrations(uid)) {
        std::ostringstream detail;
        detail << "app uid " << uid
               << " stopped while sensor listener token " << token
               << " is still registered";
        report({"teardown-balance", now, lease::kInvalidLeaseId,
                detail.str()});
    }
}

void
InvariantOracle::noteDeferralSettled(sim::Time now, lease::LeaseId id,
                                     sim::Time deferredAt,
                                     double accountedSeconds)
{
    const double realized = (now - deferredAt).seconds();
    if (now >= deferredAt &&
        relativeClose(accountedSeconds, realized, 1e-9)) {
        return;
    }
    std::ostringstream detail;
    detail << "deferral settled with " << accountedSeconds
           << "s accounted but " << realized
           << "s of wall deferral time actually elapsed (deferred at t="
           << deferredAt.seconds() << "s)";
    report({"deferral-accounting", now, id, detail.str()});
}

void
InvariantOracle::report(Violation violation)
{
    // While a flight record is being written, a violation fired from
    // inside the dump (e.g. a bound-metric callback) must not abort the
    // process mid-file or recurse into a second dump — record it instead.
    if (mode_ == FailMode::Abort && !obs::FlightRecorder::inDump()) {
        std::fprintf(stderr, "%s\n", violation.toString().c_str());
        std::fflush(stderr);
        if (obs::FlightRecorder *rec = obs::FlightRecorder::current()) {
            obs::FlightRecordContext ctx;
            ctx.reason = "invariant-violation";
            ctx.check = violation.check;
            ctx.detail = violation.detail;
            ctx.simTime = violation.simTime;
            ctx.leaseId = violation.leaseId;
            std::string path = rec->dump(ctx);
            if (!path.empty()) {
                std::fprintf(stderr,
                             "[leaseos-invariant] flight record: %s\n",
                             path.c_str());
                std::fflush(stderr);
            }
        }
        std::abort();
    }
    violations_.push_back(std::move(violation));
}

} // namespace leaseos::analysis
