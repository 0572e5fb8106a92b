#ifndef LEASEOS_TOOLS_TRACEREPLAY_REPLAY_H
#define LEASEOS_TOOLS_TRACEREPLAY_REPLAY_H

/**
 * @file
 * tracereplay — offline, deterministic replay of a LeaseOS trace
 * (DESIGN.md §10). Loads a JSON-lines trace (trace_export) or a flight
 * record (`flightrec-*.json`, obs/flight_recorder), reconstructs every
 * lease's Fig. 5 state-transition sequence and the proxy decisions made
 * against it, and re-validates the whole timeline against the oracle's
 * legality rules — so a nightly-CI flight record is triaged from the
 * artifact alone, without rerunning the 20-cell sweep.
 *
 * Checks applied per event stream:
 *  - time monotonicity (sim-time never decreases along the ring);
 *  - every lease transition is in InvariantOracle::legalTransition —
 *    the exact relation the runtime oracle enforces;
 *  - the transition payload (the emitter's from-state) agrees with the
 *    state the replay tracked for that lease;
 *  - lease ids are not re-created while still alive;
 *  - proxy decisions agree with the tracked state (grant ⇒ ACTIVE,
 *    defer ⇒ DEFERRED, deny ⇒ anything but a tracked-ACTIVE lease);
 *  - classifier verdicts and utility charges only fire on ACTIVE leases.
 *
 * Leases born before the ring's oldest retained event are tracked from
 * their first transition using the event's from-state payload (counted
 * in ReplayReport::inferredLeases — expected after ring wrap, not an
 * error).
 *
 * diffTraces() compares two event streams field-for-field and reports
 * the first divergence — the determinism check between two runs of the
 * same spec.
 */

#include <cstdint>
#include <string>
#include <vector>

namespace leaseos::tracereplay {

/** One parsed trace event (the JSON-lines schema of trace_export). */
struct ReplayEvent {
    std::int64_t timeNs = 0;
    std::string cat;
    std::string ev;
    std::int32_t uid = 0;
    std::uint64_t leaseId = 0;
    std::uint64_t payload = 0;
    std::string payloadRaw; ///< exact source token (64-bit-safe diffs)

    /** Render as one line for reports. */
    std::string toString() const;
};

/** A loaded trace plus its provenance. */
struct Trace {
    std::vector<ReplayEvent> events;
    bool flightRecord = false; ///< loaded from a flightrec-*.json
    std::string check;  ///< flight record: the violated check
    std::string detail; ///< flight record: the diagnostic
    std::string error;  ///< non-empty when loading failed
    bool ok() const { return error.empty(); }
};

/** One replay finding (an illegal or inconsistent event). */
struct ReplayIssue {
    std::size_t eventIndex = 0; ///< index into Trace::events
    std::string check;          ///< "state-machine", "proxy-decision", ...
    std::string detail;
    std::string toString() const;
};

struct ReplayReport {
    std::vector<ReplayIssue> issues;
    std::size_t eventCount = 0;
    std::size_t leaseCount = 0;       ///< distinct lease ids seen
    std::size_t transitionsChecked = 0;
    std::size_t inferredLeases = 0;   ///< first seen mid-life (ring wrap)
    std::size_t baselineLeases = 0;   ///< pre-seeded from a checkpoint
    bool clean() const { return issues.empty(); }
};

/** First divergence between two traces (the --diff mode). */
struct DiffResult {
    bool diverged = false;
    std::size_t index = 0;    ///< first diverging event index
    std::string field;        ///< which field differed ("length" at EOF)
    std::string a, b;         ///< both events rendered (or "<absent>")
};

/** Load a `.jsonl` trace or a `flightrec-*.json` document from @p path. */
Trace loadTrace(const std::string &path);

/** Re-validate @p trace against the oracle's offline legality rules. */
ReplayReport validate(const Trace &trace);

struct CheckpointView; // checkpoint_view.h

/**
 * Validate @p trace from a checkpoint baseline: every lease alive in the
 * blob is pre-seeded with its snapshotted state (counted in
 * ReplayReport::baselineLeases, not as inferences), and the replay clock
 * starts at the blob's sim time — a trace captured before the boundary
 * fails time monotonicity. This is how a trace that starts mid-run is
 * triaged without replaying the prefix before the blob.
 */
ReplayReport validate(const Trace &trace, const CheckpointView &baseline);

/** Field-for-field comparison; reports the first diverging event. */
DiffResult diffTraces(const Trace &a, const Trace &b);

} // namespace leaseos::tracereplay

#endif // LEASEOS_TOOLS_TRACEREPLAY_REPLAY_H
