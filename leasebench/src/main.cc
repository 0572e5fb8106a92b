/**
 * @file
 * leasebench: the repository benchmark.
 *
 *   leasebench --workload NAME --seed N --seconds S --trace 0|1
 *              [--smoke] [--span-out PATH]
 *
 * Workloads: table5_30min, fleet_4day, interactive_30apps (see
 * workloads.h). Normally started through run.py, which builds it first.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.h"

namespace {

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "leasebench: %s\n"
                 "usage: leasebench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--smoke] [--span-out PATH]\n",
                 why);
    std::exit(2);
}

/** Strict decimal integer in [lo, hi]. */
long long
parseInt(const char *text, long long lo, long long hi, const char *flag)
{
    char *end = nullptr;
    long long v = std::strtoll(text, &end, 10);
    if (*text == '\0' || *end != '\0' || v < lo || v > hi) usage(flag);
    return v;
}

} // namespace

int
main(int argc, char **argv)
{
    leasebench::Options o;
    bool haveWorkload = false;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (flag == "--smoke") {
            o.smoke = true;
            continue;
        }
        if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
        const char *value = argv[++i];
        if (flag == "--workload") {
            o.workload = value;
            haveWorkload = true;
        } else if (flag == "--seed") {
            o.seed = static_cast<std::uint64_t>(
                parseInt(value, 0, 1LL << 62, "bad --seed"));
        } else if (flag == "--seconds") {
            o.seconds = static_cast<double>(
                parseInt(value, 1, 600, "bad --seconds"));
        } else if (flag == "--trace") {
            o.trace = parseInt(value, 0, 1, "bad --trace") == 1;
        } else if (flag == "--span-out") {
            o.spanPath = value;
        } else {
            usage(("unknown flag " + flag).c_str());
        }
    }
    if (!haveWorkload) usage("--workload is required");
    return leasebench::runBenchmark(o);
}
