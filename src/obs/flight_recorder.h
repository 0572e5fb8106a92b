#ifndef LEASEOS_OBS_FLIGHT_RECORDER_H
#define LEASEOS_OBS_FLIGHT_RECORDER_H

/**
 * @file
 * FlightRecorder — the crash-dump half of the telemetry layer
 * (DESIGN.md §10): when the checked-mode oracle is about to abort the
 * process, it cuts a `flightrec-*.json` file holding the full TraceBuffer
 * ring plus a MetricRegistry snapshot, so the violation can be triaged
 * offline with tools/tracereplay instead of rerunning the sweep.
 *
 * Cost model: the recorder does nothing until dump() is called — no
 * per-event work, no allocation on any steady-state path. Installing one
 * is free in every build flavour; the only code that consults it is the
 * oracle's abort path and explicit dump() callers.
 *
 * Visibility follows the thread-local install()/uninstall()/current()
 * protocol shared with InvariantOracle, MetricRegistry, and TraceBuffer:
 * one recorder per run thread, nestable, deterministic under parallel
 * sweeps.
 *
 * Reentrancy: dump() walks the registry's bound-metric callbacks and (in
 * principle) arbitrary instrumented code, which could fire the oracle
 * again mid-dump. A thread-local in-dump flag makes the nested dump() a
 * no-op and tells the oracle to record instead of abort while a dump is
 * being written, so one violation can never recurse into a torn record.
 *
 * File naming is deterministic: simulated time plus a per-recorder
 * sequence number — never wall-clock time, which the leaselint
 * determinism rule (correctly) forbids in simulation-adjacent code.
 */

#include <cstdint>
#include <string>

#include "sim/time.h"

namespace leaseos::obs {

/** Why a flight record is being cut; becomes the JSON header. */
struct FlightRecordContext {
    std::string reason;  ///< "invariant-violation", "manual", ...
    std::string check;   ///< oracle check name; empty for manual dumps
    std::string detail;  ///< human-readable diagnostic
    sim::Time simTime;   ///< virtual time of the trigger
    std::uint64_t leaseId = 0; ///< involved lease, 0 when n/a
};

class FlightRecorder
{
  public:
    /**
     * Records will be written under @p dir (created on first dump) as
     * `flightrec-<label>-t<simNanos>-<seq>.json`. @p label is sanitized
     * to [A-Za-z0-9._-].
     */
    explicit FlightRecorder(std::string dir, std::string label = "run");
    ~FlightRecorder();

    FlightRecorder(const FlightRecorder &) = delete;
    FlightRecorder &operator=(const FlightRecorder &) = delete;

    /**
     * Write one flight record from the telemetry installed on this
     * thread (MetricRegistry::current(), TraceBuffer::current() — either
     * may be absent). Returns the path written, or "" if the dump was
     * suppressed (reentrant call) or the file could not be created.
     */
    std::string dump(const FlightRecordContext &ctx);

    /** True while this thread is inside dump() — the oracle must not
     *  abort (or re-dump) while the record is being written. */
    static bool inDump() noexcept;

    /** Successful dumps so far. */
    std::uint64_t dumps() const noexcept { return dumps_; }

    // ---- thread-local visibility (mirrors InvariantOracle) --------------

    void install();
    void uninstall();
    static FlightRecorder *current();

  private:
    std::string dir_;
    std::string label_;
    std::uint64_t dumps_ = 0;
    bool installed_ = false;
    FlightRecorder *previous_ = nullptr;
};

} // namespace leaseos::obs

#endif // LEASEOS_OBS_FLIGHT_RECORDER_H
