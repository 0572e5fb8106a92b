#ifndef LEASEOS_ANALYSIS_INVARIANTS_H
#define LEASEOS_ANALYSIS_INVARIANTS_H

/**
 * @file
 * The checked-mode invariant oracle: runtime validation that the core
 * protocol contracts of this reproduction actually hold during real runs.
 *
 * What it checks:
 *  - lease state machine: every transition is in the Fig. 5 legal set
 *    (ACTIVE→{INACTIVE,DEFERRED}, INACTIVE→ACTIVE, DEFERRED→{ACTIVE,
 *    INACTIVE}, any→DEAD; DEAD is terminal);
 *  - lease table ↔ binder consistency: every non-Dead lease maps to a
 *    kernel object the TokenAllocator still reports live, and its armed
 *    term/deferral event is actually pending;
 *  - event-queue time monotonicity: the simulator never dispatches an
 *    event earlier than the current virtual time;
 *  - energy conservation: per-uid, per-channel, and per-(uid,channel)
 *    energy integrals sum to the accountant's total, which bounds the
 *    battery's drained energy;
 *  - acquire/release balance at app teardown: a stopping app holds no
 *    wakelocks, GPS requests, or sensor registrations;
 *  - deferral τ accounting: when a lease leaves DEFERRED, the seconds
 *    credited to totalDeferralSeconds equal the wall deferral time that
 *    actually elapsed;
 *  - service tokens: every record a resource service keeps has a token
 *    the TokenAllocator reports live (the mirror of the lease-table
 *    check), so no record outlives its kernel object.
 *
 * Violations produce a structured diagnostic carrying the simulated time
 * and lease id (when one is involved). In Abort mode (the default for
 * checked example/bench runs) the process dies loudly; before aborting,
 * the oracle cuts a flight record (trace ring + metrics snapshot) through
 * the thread's installed obs::FlightRecorder, if any — see DESIGN.md §10.
 * In Record mode (tests) violations accumulate for inspection.
 *
 * Wiring: hook sites in src/lease, src/sim, src/app, and src/harness call
 * through the LEASEOS_ORACLE macro, which compiles to nothing unless the
 * build sets -DLEASEOS_CHECKED (CMake option LEASEOS_CHECKED). The oracle
 * class itself is always compiled so tests can drive each check directly
 * in any build flavour.
 */

#include <cstdint>
#include <string>
#include <vector>

#include "common/ids.h"
#include "lease/lease.h"
#include "sim/time.h"

namespace leaseos::sim {
class Simulator;
} // namespace leaseos::sim

namespace leaseos::os {
class SystemServer;
class TokenAllocator;
} // namespace leaseos::os

namespace leaseos::power {
class Battery;
class EnergyAccountant;
} // namespace leaseos::power

namespace leaseos::lease {
class LeaseTable;
} // namespace leaseos::lease

namespace leaseos::analysis {

/** One invariant violation, with the simulation context it fired in. */
struct Violation {
    std::string check;   ///< e.g. "state-machine", "energy-conservation"
    sim::Time simTime;   ///< virtual time of the violation
    lease::LeaseId leaseId = lease::kInvalidLeaseId; ///< 0 when n/a
    std::string detail;  ///< human-readable description

    /** "[leaseos-invariant] t=...s lease=... check=...: detail". */
    std::string toString() const;
};

/**
 * Collects (or aborts on) invariant violations for one device/thread.
 */
class InvariantOracle
{
  public:
    enum class FailMode {
        Record, ///< accumulate violations; caller inspects
        Abort   ///< print the diagnostic and abort the process
    };

    explicit InvariantOracle(FailMode mode = FailMode::Abort);
    ~InvariantOracle();
    InvariantOracle(const InvariantOracle &) = delete;
    InvariantOracle &operator=(const InvariantOracle &) = delete;

    /**
     * Make this oracle the hook target for the current thread (hooks are
     * per-thread because each Simulator/Device belongs to one thread; see
     * harness/runner.h). Nests: uninstall() restores the previous oracle.
     */
    void install();
    void uninstall();

    /** The installed oracle for this thread, or nullptr. */
    static InvariantOracle *current();

    // ---- Hook entry points (push-style, called from hot paths) --------

    /** Validate one lease state transition against the Fig. 5 legal set. */
    void noteLeaseTransition(sim::Time now, lease::LeaseId id,
                             lease::LeaseState from, lease::LeaseState to);

    /** Validate that the simulator clock never runs backwards. */
    void noteEventDispatch(sim::Time now, sim::Time eventTime);

    /**
     * Validate deferral τ accounting when a lease leaves DEFERRED (resume
     * or death): the seconds the manager just credited must equal the
     * wall deferral time actually realized since @p deferredAt. Catches
     * both the historic defer-time pre-crediting bug and any future
     * drift between the schedule and the settle path.
     */
    void noteDeferralSettled(sim::Time now, lease::LeaseId id,
                             sim::Time deferredAt, double accountedSeconds);

    // ---- Audits (pull-style, run periodically and at shutdown) --------

    /**
     * Lease-table ↔ token-index and ↔ binder consistency, plus
     * armed-event liveness and ACTIVE term deadlines.
     */
    void auditLeaseTable(const sim::Simulator &sim,
                         const lease::LeaseTable &table,
                         const os::TokenAllocator &tokens);

    /**
     * Energy conservation: uid / channel / (uid,channel) sums vs. total,
     * and the battery's drain bounded by the total. @p tolerance is
     * relative.
     */
    void auditEnergy(sim::Time now, const power::EnergyAccountant &accountant,
                     const power::Battery &battery, double tolerance = 1e-6);

    /** No resource service keeps a record whose token is retired. */
    void auditServiceTokens(sim::Time now, os::SystemServer &server);

    /** Wakelock/GPS/sensor balance when the app with @p uid stops. */
    void checkAppTeardown(sim::Time now, os::SystemServer &server, Uid uid);

    // ---- Results -------------------------------------------------------

    const std::vector<Violation> &violations() const { return violations_; }
    bool clean() const { return violations_.empty(); }
    void reset() { violations_.clear(); }

    /**
     * Lease transitions this oracle has checked — the independent count
     * the telemetry rollup is validated against (a traced+checked run
     * must report lease.transitions.* summing to exactly this).
     */
    std::uint64_t transitionsChecked() const { return transitionsChecked_; }

    /** The Fig. 5 transition relation (exposed for tests). */
    static bool legalTransition(lease::LeaseState from,
                                lease::LeaseState to);

  private:
    void report(Violation violation);

    FailMode mode_;
    bool installed_ = false;
    InvariantOracle *previous_ = nullptr;
    std::vector<Violation> violations_;
    std::uint64_t transitionsChecked_ = 0;
};

} // namespace leaseos::analysis

/**
 * Hook macro: `LEASEOS_ORACLE(noteLeaseTransition(...))` forwards to the
 * thread's installed oracle in checked builds and compiles to nothing
 * otherwise, so production builds pay zero cost.
 */
#if defined(LEASEOS_CHECKED)
#define LEASEOS_ORACLE(call)                                               \
    do {                                                                   \
        if (::leaseos::analysis::InvariantOracle *leaseos_oracle_ =        \
                ::leaseos::analysis::InvariantOracle::current())           \
            leaseos_oracle_->call;                                         \
    } while (0)
#else
#define LEASEOS_ORACLE(call) ((void)0)
#endif

#endif // LEASEOS_ANALYSIS_INVARIANTS_H
