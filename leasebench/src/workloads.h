#ifndef LEASEBENCH_WORKLOADS_H
#define LEASEBENCH_WORKLOADS_H

/**
 * @file
 * The benchmark's three workloads, each a list of device runs that is
 * repeated in rounds until the measuring time is used up.
 *
 * A round holds `groups × modes` runs. Run k of a workload belongs to
 * round k / runsPerRound(); inside the round, runs are ordered by group
 * (Table-5 app or seed slot) and then by mode, and every mode of one group
 * shares one seed, deriveSeed(baseSeed, round·groups + group). So each
 * vanilla run has a LeaseOS partner with the same app and the same seed.
 */

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "harness/device.h"
#include "harness/runner.h"
#include "sim/time.h"

namespace leasebench {

using leaseos::harness::MitigationMode;

struct Workload {
    std::string name;
    /** Virtual time each device run covers. */
    leaseos::sim::Time horizon;
    /** Virtual-time slice between probes in the traced run. */
    leaseos::sim::Time slice;
    /** Groups per round: Table-5 apps, or seed slots. */
    std::size_t groups = 0;
    /** Modes each group runs under; modes[0] is always vanilla. */
    std::vector<MitigationMode> modes;
    /** True when group g is Table-5 app g (appKey() names it). */
    bool table5Apps = false;
    /** The spec of group @p group under @p mode, before seeding. */
    leaseos::harness::RunSpec (*build)(std::size_t group, MitigationMode mode,
                                       leaseos::sim::Time horizon) = nullptr;

    std::size_t runsPerRound() const { return groups * modes.size(); }

    /** The spec of run @p k for base seed @p baseSeed (seed filled in). */
    leaseos::harness::RunSpec spec(std::size_t k,
                                   std::uint64_t baseSeed) const;

    std::size_t round(std::size_t k) const { return k / runsPerRound(); }
    std::size_t group(std::size_t k) const
    {
        return k % runsPerRound() / modes.size();
    }
    std::size_t modeIndex(std::size_t k) const { return k % modes.size(); }
};

/**
 * Look up a workload. @p smoke shortens every horizon so all three finish
 * a round in well under a second. Returns false for an unknown name.
 */
bool findWorkload(const std::string &name, bool smoke, Workload &out);

/** Key of Table-5 app @p index ("k9", "where", ...). */
const std::string &appKey(std::size_t index);

/** Number of Table-5 apps. */
std::size_t appCount();

} // namespace leasebench

#endif // LEASEBENCH_WORKLOADS_H
