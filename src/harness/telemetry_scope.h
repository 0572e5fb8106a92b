#ifndef LEASEOS_HARNESS_TELEMETRY_SCOPE_H
#define LEASEOS_HARNESS_TELEMETRY_SCOPE_H

/**
 * @file
 * Per-run telemetry scope: owns the MetricRegistry / TraceBuffer /
 * FlightRecorder a scenario run installs thread-locally (DESIGN.md §9).
 *
 * RAII: the constructor installs the sinks on the calling thread and the
 * destructor removes them. Components cache MetricRegistry::current() at
 * construction, so the scope must exist before the Device is built and
 * the run must stay on the constructing thread.
 */

#include <cstdio>
#include <memory>

#include "obs/flight_recorder.h"
#include "obs/metric_registry.h"
#include "obs/trace.h"

namespace leaseos::harness {

struct RunSpec;
struct RunResult;

/**
 * Owns and (un)installs a run's thread-local telemetry sinks.
 */
class TelemetryScope
{
  public:
    /** Create the sinks @p spec asks for and install them here. */
    explicit TelemetryScope(const RunSpec &spec);

    /** Remove the sinks from the calling thread. */
    ~TelemetryScope();

    TelemetryScope(const TelemetryScope &) = delete;
    TelemetryScope &operator=(const TelemetryScope &) = delete;

    /** Snapshot metrics / export the trace into @p result. */
    void finish(const RunSpec &spec, RunResult &result) const;

  private:
    std::unique_ptr<obs::MetricRegistry> registry_;
    std::unique_ptr<obs::TraceBuffer> trace_;
    std::unique_ptr<obs::FlightRecorder> recorder_;
};

} // namespace leaseos::harness

#endif // LEASEOS_HARNESS_TELEMETRY_SCOPE_H
