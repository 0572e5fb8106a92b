/**
 * tracereplay CLI — offline trace triage (DESIGN.md §10, §11).
 *
 *   tracereplay TRACE                 validate one trace / flight record
 *   tracereplay --diff A B            report the first diverging event
 *
 * To localise a divergence between two runs of one spec, compare their
 * per-interval state digests (RunSpec::checkpointEvery) to find the
 * first interval that differs, then --diff their traces to find the
 * first event that differs.
 *
 * Exit status: 0 clean, 1 replay issues or divergence, 2 usage or load
 * error.
 */

#include <cstdio>
#include <cstring>

#include "tracereplay/replay.h"

namespace {

int
usage()
{
    std::fprintf(stderr,
                 "usage: tracereplay TRACE\n"
                 "       tracereplay --diff A B\n"
                 "TRACE, A and B are .jsonl trace exports or "
                 "flightrec-*.json\n");
    return 2;
}

int
runValidate(const char *path)
{
    using namespace leaseos::tracereplay;
    Trace trace = loadTrace(path);
    if (!trace.ok()) {
        std::fprintf(stderr, "tracereplay: %s\n", trace.error.c_str());
        return 2;
    }
    if (trace.flightRecord) {
        std::printf("flight record: check=%s\n  %s\n",
                    trace.check.empty() ? "?" : trace.check.c_str(),
                    trace.detail.c_str());
    }
    ReplayReport report = validate(trace);
    for (const ReplayIssue &issue : report.issues) {
        std::printf("%s\n", issue.toString().c_str());
        if (issue.eventIndex < trace.events.size())
            std::printf("  %s\n",
                        trace.events[issue.eventIndex].toString().c_str());
    }
    std::printf("%s: %zu events, %zu leases (%zu pre-ring), "
                "%zu transitions checked, %zu issues\n",
                report.clean() ? "replay OK" : "replay FAILED",
                report.eventCount, report.leaseCount,
                report.inferredLeases, report.transitionsChecked,
                report.issues.size());
    return report.clean() ? 0 : 1;
}

int
runDiff(const char *pathA, const char *pathB)
{
    using namespace leaseos::tracereplay;
    Trace a = loadTrace(pathA);
    Trace b = loadTrace(pathB);
    if (!a.ok() || !b.ok()) {
        std::fprintf(stderr, "tracereplay: %s\n",
                     (!a.ok() ? a.error : b.error).c_str());
        return 2;
    }
    DiffResult diff = diffTraces(a, b);
    if (!diff.diverged) {
        std::printf("identical: %zu events\n", a.events.size());
        return 0;
    }
    std::printf("diverged at event #%zu (field %s):\n  a: %s\n  b: %s\n",
                diff.index, diff.field.c_str(), diff.a.c_str(),
                diff.b.c_str());
    return 1;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc == 2 && std::strcmp(argv[1], "--help") != 0)
        return runValidate(argv[1]);
    if (argc == 4 && std::strcmp(argv[1], "--diff") == 0)
        return runDiff(argv[2], argv[3]);
    return usage();
}
