#ifndef LEASEBENCH_BENCH_H
#define LEASEBENCH_BENCH_H

/**
 * @file
 * Runs one workload for a fixed host-time budget and prints its metrics.
 *
 * Tracing off, it prints the end-to-end metrics. Tracing on, it first runs
 * the workload plainly for half the budget, then again for the other half
 * with every device advanced in fixed virtual-time slices and probed at
 * each slice boundary, and prints the per-layer metrics. The last line of
 * stdout is always one JSON object:
 *
 *     {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
 */

#include <cstdint>
#include <string>

namespace leasebench {

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Short horizons, for the benchmark's own smoke test. */
    bool smoke = false;
    /** Where the traced run writes its spans (JSON lines); may be empty. */
    std::string spanPath;
};

/** Run the benchmark; returns the process exit code. */
int runBenchmark(const Options &options);

} // namespace leasebench

#endif // LEASEBENCH_BENCH_H
