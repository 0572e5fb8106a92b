#ifndef LEASEOS_HARNESS_EXPERIMENT_H
#define LEASEOS_HARNESS_EXPERIMENT_H

/**
 * @file
 * Table-5 cell spec builder over the generic scenario-run API in
 * harness/runner.h.
 *
 * mitigationCellSpec() describes the paper's standard cell: run one buggy
 * app for 30 minutes under a mitigation mode on a Pixel XL, with a
 * background "lightly attended device" script (occasional glances /
 * pocket movement) that gives Doze its realistic interruptions. Callers
 * execute the spec with runScenario() or sweep lists of them with
 * ParallelRunner.
 */

#include "harness/runner.h"
#include "sim/time.h"

namespace leaseos::apps {
struct BuggyAppSpec;
} // namespace leaseos::apps

namespace leaseos::harness {

/** Options for a Table 5 cell run. */
struct MitigationRunOptions {
    sim::Time duration = sim::Time::fromMinutes(30.0);
    power::DeviceProfile profile = power::profiles::pixelXl();
    /**
     * Periodic user glances (screen + motion blips). On = the realistic
     * "phone on the desk but alive" condition that interrupts Doze.
     */
    bool userGlances = true;
    sim::Time glanceInterval = sim::Time::fromMinutes(10.0);
    sim::Time glanceLength = sim::Time::fromSeconds(20.0);
    std::uint64_t seed = 0x1ea5e05;
};

/**
 * Build the RunSpec for one buggy-app × mitigation-mode Table 5 cell;
 * execute with runScenario() or feed lists of them to a ParallelRunner.
 */
RunSpec mitigationCellSpec(const apps::BuggyAppSpec &spec,
                           MitigationMode mode,
                           const MitigationRunOptions &opt = {});

/** Reduction percentage of @p mitigated relative to @p baseline. */
double reductionPercent(double baselineMw, double mitigatedMw);

} // namespace leaseos::harness

#endif // LEASEOS_HARNESS_EXPERIMENT_H
