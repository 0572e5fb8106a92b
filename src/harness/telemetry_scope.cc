#include "harness/telemetry_scope.h"

#include "harness/runner.h"
#include "obs/trace_export.h"

namespace leaseos::harness {

TelemetryScope::TelemetryScope(const RunSpec &spec)
{
    if (spec.collectMetrics || !spec.tracePath.empty())
        registry_ = std::make_unique<obs::MetricRegistry>();
    if (!spec.tracePath.empty()) {
        trace_ = std::make_unique<obs::TraceBuffer>(spec.traceCapacity);
#if !defined(LEASEOS_TRACING)
        std::fprintf(stderr,
                     "warning: %s: trace requested but hooks are "
                     "compiled out; rebuild with -DLEASEOS_TRACING=ON "
                     "for a populated trace\n",
                     spec.name.empty() ? "run" : spec.name.c_str());
#endif
    }
    if (!spec.flightRecordDir.empty()) {
        recorder_ = std::make_unique<obs::FlightRecorder>(
            spec.flightRecordDir, spec.name.empty() ? "run" : spec.name);
    }
    // Recorder last so its abort-path dump sees the registry and ring.
    if (registry_) registry_->install();
    if (trace_) trace_->install();
    if (recorder_) recorder_->install();
}

TelemetryScope::~TelemetryScope()
{
    if (recorder_) recorder_->uninstall();
    if (trace_) trace_->uninstall();
    if (registry_) registry_->uninstall();
}

void
TelemetryScope::finish(const RunSpec &spec, RunResult &result) const
{
    if (registry_) result.metrics = registry_->snapshot();
    if (trace_) {
        result.traceEventsRetained = trace_->size();
        result.traceEventsEmitted = trace_->emitted();
        if (!obs::writeTraceFile(*trace_, spec.tracePath))
            std::fprintf(stderr, "warning: cannot write trace %s\n",
                         spec.tracePath.c_str());
    }
}

} // namespace leaseos::harness
