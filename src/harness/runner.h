#ifndef LEASEOS_HARNESS_RUNNER_H
#define LEASEOS_HARNESS_RUNNER_H

/**
 * @file
 * The parallel experiment engine: a generic scenario-run API plus a
 * thread-pool sweep runner.
 *
 * Every paper table/figure (and every sweep the paper never printed) is a
 * list of *independent* discrete-event simulations: build a Device,
 * install apps, trigger an environment, run virtual time forward, read
 * metrics. A RunSpec describes one such run declaratively; runScenario()
 * executes it; ParallelRunner executes a whole list across a fixed worker
 * pool with deterministic per-spec seeding and ordered result collection,
 * so `jobs=1` and `jobs=N` produce bit-identical results.
 */

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "harness/device.h"
#include "lease/behavior.h"
#include "obs/trace.h"
#include "sim/time.h"

namespace leaseos::app {
class App;
} // namespace leaseos::app

namespace leaseos::harness {

/**
 * Declarative description of one independent simulation run.
 *
 * A scenario is: a device configuration (mitigation mode, profile, policy,
 * seed — see DeviceConfig's fluent builders), an app set, optional
 * environment/trigger scripts, a duration, and a selection of metrics to
 * collect. The struct is plain data plus std::functions so spec lists can
 * be built up-front and shipped to worker threads.
 */
struct RunSpec {
    /** Label for tables, artifacts, and progress lines. */
    std::string name;

    /** Device construction parameters (includes the seed). */
    DeviceConfig config;

    /** Virtual time to simulate. */
    sim::Time duration = sim::Time::fromMinutes(30.0);

    /**
     * Environment/trigger scripts, run against the device before apps are
     * installed (e.g. "network down", "weak GPS signal").
     */
    std::vector<std::function<void(Device &)>> setup;

    /**
     * Apps to install, in order. The first one is the *primary* app whose
     * power is reported as RunResult::appPowerMw.
     */
    std::vector<std::function<app::App &(Device &)>> apps;

    /**
     * Hooks run after Device::start() but before time advances (e.g.
     * de-registering a custom utility counter to ablate it).
     */
    std::vector<std::function<void(Device &)>> postStart;

    /**
     * Periodic user glances (screen + motion blips) — the "lightly
     * attended device" script that gives Doze realistic interruptions.
     */
    bool userGlances = false;
    sim::Time glanceInterval = sim::Time::fromMinutes(10.0);
    sim::Time glanceLength = sim::Time::fromSeconds(20.0);

    /**
     * Metrics selection: named probes evaluated on the finished device,
     * reported (in order) in RunResult::probes. The standard power/lease
     * metrics are always collected.
     */
    std::vector<std::pair<std::string, std::function<double(Device &)>>>
        probes;

    /**
     * Telemetry (DESIGN.md §9). When collectMetrics is set, a
     * MetricRegistry is installed for the run's thread and its snapshot
     * lands in RunResult::metrics. When tracePath is non-empty, a
     * TraceBuffer ring of traceCapacity events is installed and exported
     * there after the run (".jsonl" → JSON-lines, else Chrome
     * trace_event; hooks require a -DLEASEOS_TRACING=ON build).
     */
    bool collectMetrics = false;
    std::string tracePath;
    std::size_t traceCapacity = obs::TraceBuffer::kDefaultCapacity;

    /**
     * When non-empty, an obs::FlightRecorder is installed for the run's
     * thread: if the checked-mode oracle aborts, it first dumps the trace
     * ring + metrics snapshot to `flightRecordDir/flightrec-<name>-*.json`
     * (DESIGN.md §10). Free when nothing fires — the recorder does no
     * per-event work.
     */
    std::string flightRecordDir;

    /**
     * State digests (DESIGN.md §11). When checkpointEvery is non-zero,
     * the run takes Device::stateDigest() at every multiple of that
     * interval (k·every ≤ duration, k ≥ 1) and records {time, digest} in
     * RunResult::checkpoints. The instants depend only on the spec, never
     * on the job count or on how a ScenarioSession is stepped, so the
     * digests of two runs of one spec must agree interval by interval.
     */
    sim::Time checkpointEvery;

    // ---- Fluent helpers (keep spec lists declarative) -------------------

    RunSpec &
    withName(std::string n)
    {
        name = std::move(n);
        return *this;
    }
    RunSpec &
    withConfig(DeviceConfig c)
    {
        config = std::move(c);
        return *this;
    }
    RunSpec &
    withDuration(sim::Time d)
    {
        duration = d;
        return *this;
    }
    RunSpec &
    withSetup(std::function<void(Device &)> fn)
    {
        setup.push_back(std::move(fn));
        return *this;
    }
    RunSpec &
    withApp(std::function<app::App &(Device &)> fn)
    {
        apps.push_back(std::move(fn));
        return *this;
    }
    /** Install an app of type T (ctor: T(AppContext&, Uid)). */
    template <typename T>
    RunSpec &
    withApp()
    {
        return withApp(
            [](Device &d) -> app::App & { return d.install<T>(); });
    }
    RunSpec &
    withPostStart(std::function<void(Device &)> fn)
    {
        postStart.push_back(std::move(fn));
        return *this;
    }
    RunSpec &
    withProbe(std::string probeName, std::function<double(Device &)> fn)
    {
        probes.emplace_back(std::move(probeName), std::move(fn));
        return *this;
    }
    RunSpec &
    withTrace(std::string path,
              std::size_t capacity = obs::TraceBuffer::kDefaultCapacity)
    {
        tracePath = std::move(path);
        traceCapacity = capacity;
        return *this;
    }
    RunSpec &
    withCheckpoints(sim::Time every)
    {
        checkpointEvery = every;
        return *this;
    }
};

/** Outcome of one scenario run. Field-wise comparable for determinism
 *  checks. */
struct RunResult {
    std::string name;
    std::size_t specIndex = 0;
    std::uint64_t seed = 0;

    /** Average power of the primary (first-installed) app, mW. */
    double appPowerMw = 0.0;
    /** Average whole-device power, mW. */
    double systemPowerMw = 0.0;
    /** Per-app average power keyed by install order, mW. */
    std::vector<double> perAppPowerMw;

    /** Lease metrics (all zero when the mode has no lease runtime). */
    std::map<lease::BehaviorType, std::uint64_t> behaviorCounts;
    std::uint64_t deferrals = 0;
    std::uint64_t termChecks = 0;
    std::uint64_t leasesCreated = 0;

    /** Probe values, in RunSpec::probes order. */
    std::vector<std::pair<std::string, double>> probes;

    /**
     * MetricRegistry snapshot in registration order (empty unless
     * RunSpec::collectMetrics was set). Deterministic across job counts.
     */
    std::vector<std::pair<std::string, double>> metrics;

    /** Trace-ring accounting (zero unless RunSpec::tracePath was set). */
    std::uint64_t traceEventsRetained = 0;
    std::uint64_t traceEventsEmitted = 0;

    /** One state digest taken at a RunSpec::checkpointEvery boundary. */
    struct Checkpoint {
        std::int64_t timeNanos = 0; ///< sim time of the boundary
        std::uint64_t digest = 0;   ///< Device::stateDigest() there
        friend bool operator==(const Checkpoint &,
                               const Checkpoint &) = default;
    };

    /**
     * State digests taken during the run, in time order. Equal across
     * job counts for the same spec; the first differing digest between
     * two runs names the interval where they diverged.
     */
    std::vector<Checkpoint> checkpoints;

    /** Probe value by name; throws std::out_of_range if absent. */
    double probe(const std::string &probeName) const;

    /** Registry metric by name; throws std::out_of_range if absent. */
    double metric(const std::string &metricName) const;

    friend bool operator==(const RunResult &, const RunResult &) = default;
};

/** Execute one scenario synchronously on the calling thread. */
RunResult runScenario(const RunSpec &spec);

/**
 * As above, but with @p config in place of spec.config — lets callers
 * (e.g. ParallelRunner's reseeding) vary device parameters without
 * copying the whole spec. RunResult::seed reports config.seed.
 */
RunResult runScenario(const RunSpec &spec, const DeviceConfig &config);

/**
 * Install the lightly-attended-device script: screen on briefly + motion
 * blip every @p interval (what RunSpec::userGlances uses internally).
 * The script stops when the returned handle is cancelled or destroyed;
 * keep it alive for as long as the user should stay lively. Overlapping
 * glances (length >= interval) are safe: a glance's screen-off event is
 * ignored once a newer glance has begun.
 */
[[nodiscard]] sim::PeriodicHandle
installGlanceScript(Device &device, sim::Time interval, sim::Time length);

/**
 * Deterministic per-spec seed: splitmix64 of (baseSeed, specIndex).
 * Distinct indices give well-separated streams regardless of baseSeed.
 */
std::uint64_t deriveSeed(std::uint64_t baseSeed, std::uint64_t specIndex);

/** ParallelRunner construction parameters. */
struct RunnerOptions {
    /**
     * Worker threads. 0 = automatic: $LEASEOS_JOBS if set, else
     * hardware_concurrency.
     */
    int jobs = 0;

    /**
     * When set, every spec's seed is overridden with
     * deriveSeed(*baseSeed, specIndex) — use for sweeps that want
     * independent randomness per cell without hand-writing seeds. When
     * unset (default), each spec's own config.seed is used verbatim.
     */
    std::optional<std::uint64_t> baseSeed;
};

/**
 * Fixed worker-pool executor for lists of independent RunSpecs.
 *
 * Results are collected in spec order no matter which worker finished
 * first, and every run's seed depends only on (spec, index) — never on
 * scheduling — so a sweep is bit-identical across job counts.
 */
class ParallelRunner
{
  public:
    explicit ParallelRunner(RunnerOptions options = {});

    /** Resolved worker count (>= 1). */
    int jobs() const { return jobs_; }

    /**
     * Run every spec; returns results in spec order. @p onResult, when
     * given, is invoked once per completed run (serialised under an
     * internal mutex, in completion order) for progress reporting.
     */
    std::vector<RunResult>
    run(const std::vector<RunSpec> &specs,
        const std::function<void(const RunResult &)> &onResult = {}) const;

    /**
     * Automatic worker count: $LEASEOS_JOBS when set to a positive
     * integer, else std::thread::hardware_concurrency().
     */
    static int defaultJobs();

    /**
     * Parse a `--jobs N` / `--jobs=N` / `-jN` / `-j N` flag from argv
     * (first match wins); returns options with jobs=0 (automatic) when
     * absent. A malformed or missing value (`--jobs=abc`, `-jxyz`,
     * trailing `--jobs`) prints a usage message to stderr and exits with
     * status 2 — never silently falls back to the default.
     */
    static RunnerOptions parseArgs(int argc, char **argv);

    /**
     * Strictly parse a jobs value: decimal digits only, >= 0 (0 means
     * automatic). std::nullopt on anything else (empty, sign, suffix,
     * overflow) — what parseArgs treats as a usage error.
     */
    static std::optional<int> parseJobs(const char *text);

  private:
    int jobs_ = 1;
    RunnerOptions options_;
};

} // namespace leaseos::harness

#endif // LEASEOS_HARNESS_RUNNER_H
