#include "harness/runner.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "harness/scenario_session.h"

namespace leaseos::harness {

double
RunResult::probe(const std::string &probeName) const
{
    for (const auto &[name_, value] : probes)
        if (name_ == probeName) return value;
    throw std::out_of_range("no probe named '" + probeName + "'");
}

double
RunResult::metric(const std::string &metricName) const
{
    for (const auto &[name_, value] : metrics)
        if (name_ == metricName) return value;
    throw std::out_of_range("no metric named '" + metricName + "'");
}

sim::PeriodicHandle
installGlanceScript(Device &device, sim::Time interval, sim::Time length)
{
    auto &sim = device.simulator();
    auto &dms = device.server().displayManager();
    auto &motion = device.motion();
    // Generation guard: with length >= interval, glance N's screen-off
    // event fires after glance N+1 has begun and would blank the screen
    // (and park the user) mid-glance. Only the latest glance's off-event
    // may take effect.
    auto generation = std::make_shared<std::uint64_t>(0);
    return sim.schedulePeriodicScoped(
        interval, [&sim, &dms, &motion, length, generation] {
            // Pick up the phone: motion, then screen for a moment.
            std::uint64_t glance = ++*generation;
            motion.setStationary(false);
            dms.userSetScreen(true);
            sim.schedule(length, [&dms, &motion, generation, glance] {
                if (*generation != glance) return; // superseded
                dms.userSetScreen(false);
                motion.setStationary(true);
            });
        });
}

RunResult
runScenario(const RunSpec &spec)
{
    return runScenario(spec, spec.config);
}

RunResult
runScenario(const RunSpec &spec, const DeviceConfig &config)
{
    // A one-step session. Stepping the same session in several calls
    // gives the same result (tests/harness/test_runner.cc pins this).
    ScenarioSession session(spec, config);
    session.advanceTo(spec.duration);
    return session.finish();
}

std::uint64_t
deriveSeed(std::uint64_t baseSeed, std::uint64_t specIndex)
{
    // splitmix64: the recommended seeding mixer for mt19937-family
    // engines; consecutive indices land in statistically independent
    // streams.
    std::uint64_t z = baseSeed + 0x9e3779b97f4a7c15ULL * (specIndex + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

int
ParallelRunner::defaultJobs()
{
    if (const char *env = std::getenv("LEASEOS_JOBS")) {
        int n = std::atoi(env);
        if (n > 0) return n;
    }
    unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? static_cast<int>(hw) : 1;
}

std::optional<int>
ParallelRunner::parseJobs(const char *text)
{
    if (text == nullptr || *text == '\0') return std::nullopt;
    long value = 0;
    for (const char *p = text; *p != '\0'; ++p) {
        if (*p < '0' || *p > '9') return std::nullopt;
        value = value * 10 + (*p - '0');
        if (value > 100000) return std::nullopt; // obviously bogus
    }
    return static_cast<int>(value);
}

namespace {

[[noreturn]] void
jobsUsageError(const char *prog, const std::string &offender)
{
    std::fprintf(stderr,
                 "%s: invalid jobs flag '%s'\n"
                 "usage: %s [--jobs N | --jobs=N | -j N | -jN]\n"
                 "  N is a non-negative integer; 0 (or $LEASEOS_JOBS "
                 "unset) means automatic\n",
                 prog, offender.c_str(), prog);
    std::exit(2);
}

} // namespace

RunnerOptions
ParallelRunner::parseArgs(int argc, char **argv)
{
    RunnerOptions options;
    const char *prog = argc > 0 ? argv[0] : "bench";
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        const char *value = nullptr;
        std::string offender = arg;
        if (std::strcmp(arg, "--jobs") == 0 || std::strcmp(arg, "-j") == 0) {
            // Separated form: the value is the next argv entry.
            if (i + 1 >= argc) jobsUsageError(prog, offender);
            value = argv[++i];
            offender += std::string(" ") + value;
        } else if (std::strncmp(arg, "--jobs=", 7) == 0) {
            value = arg + 7;
        } else if (std::strncmp(arg, "-j", 2) == 0 && arg[2] != '\0') {
            value = arg + 2;
        } else {
            continue; // not a jobs flag; other flags belong to the bench
        }
        std::optional<int> jobs = parseJobs(value);
        if (!jobs) jobsUsageError(prog, offender);
        options.jobs = *jobs;
        break;
    }
    return options;
}

ParallelRunner::ParallelRunner(RunnerOptions options)
    : options_(options)
{
    jobs_ = options.jobs > 0 ? options.jobs : defaultJobs();
}

std::vector<RunResult>
ParallelRunner::run(const std::vector<RunSpec> &specs,
                    const std::function<void(const RunResult &)> &onResult)
    const
{
    std::vector<RunResult> results(specs.size());
    if (specs.empty()) return results;

    // Work queue: a shared atomic cursor over the spec list. Each worker
    // claims the next index, runs that spec on its own Device/Simulator,
    // and writes into its private results slot — collection is ordered by
    // construction, not by completion.
    std::atomic<std::size_t> next{0};
    std::mutex reportMutex;
    std::exception_ptr firstError;

    auto worker = [&] {
        for (;;) {
            std::size_t i = next.fetch_add(1);
            if (i >= specs.size()) return;
            try {
                // Specs are shared read-only across workers: reseeding
                // clones only the DeviceConfig, never the spec's app/
                // setup/probe closures.
                const RunSpec &spec = specs[i];
                RunResult r;
                if (options_.baseSeed) {
                    DeviceConfig config = spec.config;
                    config.seed = deriveSeed(*options_.baseSeed, i);
                    r = runScenario(spec, config);
                } else {
                    r = runScenario(spec);
                }
                r.specIndex = i;
                if (onResult) {
                    std::lock_guard<std::mutex> lock(reportMutex);
                    onResult(r);
                }
                results[i] = std::move(r);
            } catch (...) {
                std::lock_guard<std::mutex> lock(reportMutex);
                if (!firstError) firstError = std::current_exception();
            }
        }
    };

    int pool = static_cast<int>(
        std::min<std::size_t>(static_cast<std::size_t>(jobs_),
                              specs.size()));
    if (pool <= 1) {
        worker();
    } else {
        std::vector<std::thread> threads;
        threads.reserve(static_cast<std::size_t>(pool));
        for (int t = 0; t < pool; ++t) threads.emplace_back(worker);
        for (auto &th : threads) th.join();
    }
    if (firstError) std::rethrow_exception(firstError);
    return results;
}

} // namespace leaseos::harness
