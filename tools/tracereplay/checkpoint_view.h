#ifndef LEASEOS_TOOLS_TRACEREPLAY_CHECKPOINT_VIEW_H
#define LEASEOS_TOOLS_TRACEREPLAY_CHECKPOINT_VIEW_H

/**
 * @file
 * Offline view of a device checkpoint blob (DESIGN.md §11).
 *
 * A run with RunSpec::checkpointEvery and checkpointDir set writes a
 * framed blob (Device::saveCheckpoint) at every checkpoint instant. This
 * module lets tracereplay triage them without a simulator:
 *
 *  - decode the section table and the load-bearing scalars (sim clock,
 *    event count, energy integral, lease table);
 *  - sanity-check the lease table against the §4.3 invariants that must
 *    hold once every event due at the checkpoint instant has fired
 *    (states in range, token index consistent, no ACTIVE lease past its
 *    term end, no DEFERRED lease deferred in the future);
 *  - seed replay::validate() with the blob's lease states, so a trace
 *    captured *after* the checkpoint is validated from the blob as a
 *    baseline instead of replaying the whole prefix (leases alive at
 *    the checkpoint would otherwise all count as ring-wrap inferences).
 *
 * Malformed blobs, including section lengths that overrun the payload,
 * come back as CheckpointView::error, never as an abort.
 */

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace leaseos::tracereplay {

/** One lease row decoded from the blob's "leases" section. */
struct CkptLease {
    std::uint64_t id = 0;
    std::int32_t uid = 0;
    std::uint8_t rtype = 0;
    std::uint64_t token = 0;
    std::uint8_t state = 0; ///< LeaseState numeric value
    std::int64_t termIndex = 0;
    std::uint64_t renewals = 0;
    std::uint64_t deferrals = 0;
    std::int64_t termStartNs = 0;
    std::int64_t termLengthNs = 0;
    std::int64_t deferredAtNs = 0;
    std::size_t historyLen = 0;
};

/** Decoded checkpoint: section table + the scalars the CLI reports. */
struct CheckpointView {
    std::string error; ///< non-empty when loading/decoding failed
    bool ok() const { return error.empty(); }

    struct Section {
        std::string name;
        std::uint32_t version = 0;
        std::uint64_t bodyBytes = 0;
    };
    std::vector<Section> sections;
    std::uint64_t payloadBytes = 0;

    // "meta"
    std::uint8_t mode = 0;
    std::uint64_t seed = 0;
    std::string profile;
    std::uint64_t appCount = 0;

    // "sim"
    std::int64_t simTimeNs = 0;
    std::uint64_t executedEvents = 0;

    // "energy"
    double totalMj = 0.0;

    // "leases" (hasLeases false on a vanilla-mode blob)
    bool hasLeases = false;
    std::uint64_t nextLeaseId = 0;
    std::vector<CkptLease> leases;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> byToken;
};

/** Issue found by checkCheckpoint(). */
struct CheckpointIssue {
    std::string check; ///< "lease-state", "token-index", ...
    std::string detail;
    std::string toString() const;
};

/** Load and decode a checkpoint blob written by Device::saveCheckpoint. */
CheckpointView loadCheckpointView(const std::string &path);

/** Boundary-invariant sanity checks on a decoded blob. */
std::vector<CheckpointIssue> checkCheckpoint(const CheckpointView &view);

} // namespace leaseos::tracereplay

#endif // LEASEOS_TOOLS_TRACEREPLAY_CHECKPOINT_VIEW_H
