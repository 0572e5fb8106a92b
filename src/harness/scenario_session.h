#ifndef LEASEOS_HARNESS_SCENARIO_SESSION_H
#define LEASEOS_HARNESS_SCENARIO_SESSION_H

/**
 * @file
 * One in-flight scenario run, advanceable in steps (DESIGN.md §11).
 *
 * runScenario() — and through it every ParallelRunner worker — constructs
 * a session and advances it to the full duration in one call. Callers
 * that need to look at the device mid-run (leasebench's per-slice probes)
 * advance the same session in several steps on the same thread instead;
 * a discrete-event simulator satisfies run(T1); run(T2) ≡ run(T2), so the
 * result does not depend on the step sizes.
 *
 * A state digest is taken whenever the clock reaches a multiple of
 * RunSpec::checkpointEvery, regardless of how advanceTo() calls step
 * through the timeline; since equal device state gives an equal digest,
 * the digests fingerprint each interval.
 */

#include <cstdint>
#include <memory>
#include <vector>

#include "harness/device.h"
#include "harness/runner.h"
#include "harness/telemetry_scope.h"

namespace leaseos::harness {

/**
 * A scenario mid-run: device, telemetry sinks, and state digests so far.
 * Thread-local telemetry is installed on the constructing thread, so a
 * session must be advanced and finished on that thread.
 */
class ScenarioSession
{
  public:
    /**
     * Build the device, run RunSpec::setup, install apps, start the
     * device, and run RunSpec::postStart — everything up to the first
     * advance of virtual time.
     */
    ScenarioSession(const RunSpec &spec, const DeviceConfig &config);

    ~ScenarioSession();
    ScenarioSession(const ScenarioSession &) = delete;
    ScenarioSession &operator=(const ScenarioSession &) = delete;

    /**
     * Run virtual time forward to @p target (absolute; clamped to the
     * spec duration), taking a state digest at every multiple of
     * checkpointEvery crossed on the way.
     */
    void advanceTo(sim::Time target);

    /**
     * Collect the RunResult (identical to what runScenario() returns,
     * RunResult::specIndex aside) and tear the session down — the device
     * is destroyed and the telemetry sinks drained. Call exactly once,
     * after advancing to the full duration.
     */
    RunResult finish();

  private:
    const RunSpec *spec_;
    DeviceConfig config_;
    std::unique_ptr<TelemetryScope> telemetry_;
    std::unique_ptr<Device> device_;
    std::vector<Uid> uids_;
    sim::PeriodicHandle glanceTick_;
    std::vector<RunResult::Checkpoint> checkpoints_;
};

} // namespace leaseos::harness

#endif // LEASEOS_HARNESS_SCENARIO_SESSION_H
