/**
 * @file
 * Device-fleet scenario: N independent simulated phones (default 100,
 * `--devices=N` up to 500) in vanilla/LeaseOS pairs. Devices 2k and 2k+1
 * run the same Table-5 buggy app (app k mod 20, round-robin), the same
 * seed and the same diurnal glance script — whose cadence varies per pair
 * (heavy users glance every half minute, light users every few minutes)
 * — and differ only in the mode: vanilla Android on the even device,
 * LeaseOS on the odd one. Every device is an independent RunSpec executed
 * on the ParallelRunner worker pool, so the whole fleet is bit-identical
 * for any `--jobs N`.
 *
 * This is the scale workload for the event-queue fast path: a fleet run
 * pushes tens of millions of events through sim::EventQueue, and the
 * bench reports aggregate simulated events and heap allocations next to
 * the fleet-level power numbers (mean per mode and per behaviour class,
 * with the LeaseOS reduction). Results land on stdout and in
 * BENCH_fleet.json; wall time and events/sec vary from run to run, so
 * they go to the stdout summary line only.
 *
 * Flags: --devices=N (1..500, default 100), --minutes=M (virtual minutes
 * per device, up to a week = 10080, default 30),
 * --jobs=N / -j N (worker pool, default automatic), --trace=PATH (export
 * the first LeaseOS device's trace ring; needs a -DLEASEOS_TRACING=ON
 * build). CI smoke runs `--devices=50 --minutes=5`.
 *
 * Runs of 12 h or longer switch the glance script to an hour-granular
 * diurnal cycle (cadence follows the device's phase-shifted local time of
 * day) instead of a fixed cadence. A device's average power comes from
 * its exact energy integrals, so its memory does not grow with the
 * horizon.
 *
 * Every device runs with a MetricRegistry installed; per-device metric
 * rollups ride in the JSON artifact (stdout keeps the aggregate table).
 */

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "apps/registry.h"
#include "harness/experiment.h"
#include "harness/result_sink.h"
#include "harness/runner.h"
#include "support/alloc_counter.h"

using namespace leaseos;
using harness::MitigationMode;
using harness::ResultSink;
using sim::operator""_s;

namespace {

std::int64_t
nowNanos()
{
    // leaselint: allow(determinism) -- bench: wall time is the measurand
    auto now = std::chrono::steady_clock::now().time_since_epoch();
    return std::chrono::duration_cast<std::chrono::nanoseconds>(now)
        .count();
}

[[noreturn]] void
usageError(const char *flag)
{
    std::fprintf(stderr,
                 "bench_fleet: bad value for %s\n"
                 "usage: bench_fleet [--devices=N (1..500)] "
                 "[--minutes=M (1..10080)] "
                 "[--jobs=N | -j N]\n",
                 flag);
    std::exit(2);
}

/** Strict positive-integer flag value; exits with usage on garbage. */
long
parseValue(const char *text, const char *flag, long lo, long hi)
{
    if (text == nullptr || *text == '\0') usageError(flag);
    char *end = nullptr;
    long v = std::strtol(text, &end, 10);
    if (*end != '\0' || v < lo || v > hi) usageError(flag);
    return v;
}

/** Glance cadence for local hour-of-day @p local (0..23): daytime
 *  phases glance often with long looks, nighttime rarely and briefly. */
void
glanceCadence(int local, long &intervalSec, long &lengthSec)
{
    bool day = local >= 7 && local < 23;
    intervalSec = day ? 30 + 10 * (local % 5)   // 30..70 s
                      : 180 + 60 * (local % 4); // 3..6 min
    lengthSec = day ? 8 + local % 7 : 3;        // 8..14 s vs 3 s
}

/**
 * Per-pair diurnal glance cadence for short runs. Pair k is pinned to a
 * "time of day" phase; deterministic in k — no wall clock.
 */
void
diurnalGlances(harness::RunSpec &spec, int pair)
{
    long interval = 0;
    long length = 0;
    glanceCadence(pair % 24, interval, length);
    spec.userGlances = true;
    spec.glanceInterval = sim::Time::fromSeconds(
        static_cast<double>(interval));
    spec.glanceLength = sim::Time::fromSeconds(static_cast<double>(length));
}

/**
 * Hour-granular diurnal cycle for day/week-long runs: the glance script
 * is re-tuned every simulated hour to the cadence of the device's local
 * time of day (virtual hour + per-pair phase shift, mod 24). Installed
 * as a postStart hook; all its state lives in simulator events.
 */
void
installWeekScript(harness::Device &d, int phase)
{
    struct Cycle {
        sim::PeriodicHandle glances;
        sim::PeriodicHandle retune;
    };
    auto cycle = std::make_shared<Cycle>();
    auto tune = [&d, cycle, phase] {
        int hour =
            static_cast<int>(d.simulator().now().seconds() / 3600.0);
        long interval = 0;
        long length = 0;
        glanceCadence((phase + hour) % 24, interval, length);
        cycle->glances = harness::installGlanceScript(
            d, sim::Time::fromSeconds(static_cast<double>(interval)),
            sim::Time::fromSeconds(static_cast<double>(length)));
    };
    tune();
    cycle->retune = d.simulator().schedulePeriodicScoped(
        sim::Time::fromMinutes(60.0), tune);
}

struct ModeAgg {
    double powerSum = 0.0;
    double eventsSum = 0.0;
    int n = 0;
};

} // namespace

int
main(int argc, char **argv)
{
    long devices = 100;
    long minutes = 30;
    std::string tracePath;
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], "--devices=", 10) == 0)
            devices = parseValue(argv[i] + 10, "--devices", 1, 500);
        else if (std::strncmp(argv[i], "--minutes=", 10) == 0)
            minutes = parseValue(argv[i] + 10, "--minutes", 1, 7 * 24 * 60);
        else if (std::strncmp(argv[i], "--trace=", 8) == 0)
            tracePath = argv[i] + 8;
    }
    // Long runs switch to the hour-granular diurnal cycle.
    const bool longRun = minutes >= 12 * 60;

    const auto &corpus = apps::table5Specs();
    const MitigationMode modes[] = {MitigationMode::None,
                                    MitigationMode::LeaseOS};

    // Devices 2k (vanilla) and 2k+1 (LeaseOS) form pair k: buggy app
    // k mod 20, one seed, one diurnal glance cadence. The pair differs only
    // in the mode, so every per-class row compares the same apps; pairs
    // are independent deterministic streams.
    std::vector<harness::RunSpec> specs;
    specs.reserve(static_cast<std::size_t>(devices));
    for (long i = 0; i < devices; ++i) {
        const long pair = i / 2;
        const auto &app = corpus[static_cast<std::size_t>(pair) %
                                 corpus.size()];
        MitigationMode mode = modes[i % 2];
        harness::MitigationRunOptions opt;
        opt.duration = sim::Time::fromMinutes(static_cast<double>(minutes));
        opt.seed = harness::deriveSeed(0xf1ee7ULL,
                                       static_cast<std::uint64_t>(pair));
        harness::RunSpec spec = mitigationCellSpec(app, mode, opt);
        spec.name = "dev" + std::to_string(i) + " " + spec.name;
        if (longRun) {
            int phase = static_cast<int>(pair) % 24;
            spec.postStart.push_back([phase](harness::Device &d) {
                installWeekScript(d, phase);
            });
        } else {
            diurnalGlances(spec, static_cast<int>(pair));
        }
        spec.probes.emplace_back("events", [](harness::Device &d) {
            return static_cast<double>(d.simulator().executedEvents());
        });
        spec.collectMetrics = true;
        // Device 1 is the first LeaseOS device — the interesting trace.
        if (!tracePath.empty() && i == 1) spec.tracePath = tracePath;
        specs.push_back(std::move(spec));
    }

    harness::ParallelRunner runner(
        harness::ParallelRunner::parseArgs(argc, argv));
    const int jobs = runner.jobs();
    std::fprintf(stderr, "[fleet] %ld devices x %ld min on %d worker(s)\n",
                 devices, minutes, jobs);
    const std::int64_t t0 = nowNanos();
    const std::uint64_t allocs0 = benchsupport::allocCount();
    std::vector<harness::RunResult> results = runner.run(specs);
    std::uint64_t allocs = benchsupport::allocCount() - allocs0;
    double wallSec = static_cast<double>(nowNanos() - t0) / 1e9;

    // Aggregate per mode and per (behaviour class, mode). The per-mode
    // split relies on result i being device i (vanilla on even indices,
    // LeaseOS on odd): the runner guarantees spec-order collection for
    // any --jobs, and the name/specIndex check pins that contract — a
    // reordering would silently swap the modes in every fleet number.
    std::map<std::string, ModeAgg> perMode;
    std::map<std::string, ModeAgg> perBehavior; // key "LHB/None" etc.
    double totalEvents = 0.0;
    for (std::size_t i = 0; i < results.size(); ++i) {
        const auto &r = results[i];
        const std::string prefix = "dev" + std::to_string(i) + " ";
        if (r.specIndex != i ||
            r.name.compare(0, prefix.size(), prefix) != 0) {
            std::fprintf(stderr,
                         "bench_fleet: result %zu is '%s' (specIndex "
                         "%zu) — runner broke spec-order collection\n",
                         i, r.name.c_str(), r.specIndex);
            return 1;
        }
        const auto &app = corpus[(i / 2) % corpus.size()];
        const char *mode = (i % 2 == 0) ? "None" : "LeaseOS";
        double events = r.probe("events");
        totalEvents += events;
        auto &m = perMode[mode];
        m.powerSum += r.appPowerMw;
        m.eventsSum += events;
        ++m.n;
        auto &b = perBehavior[app.behavior + std::string("/") + mode];
        b.powerSum += r.appPowerMw;
        ++b.n;
    }

    harness::TextTableSink table;
    harness::JsonSink json(harness::benchArtifactPath("fleet"));
    harness::TeeSink sink({&table, &json});
    sink.begin("Device fleet",
               std::to_string(devices) + " devices x " +
                   std::to_string(minutes) +
                   " virtual minutes; Table-5 buggy apps round-robin, "
                   "each on a vanilla/LeaseOS device pair with one seed, "
                   "diurnal glance script. "
                   "Mean app power (mW) per behaviour class and mode, "
                   "plus simulator throughput.");

    for (const char *behavior : {"LHB", "LUB", "FAB"}) {
        const auto none = perBehavior.find(behavior + std::string("/None"));
        const auto leased =
            perBehavior.find(behavior + std::string("/LeaseOS"));
        if (none == perBehavior.end() || leased == perBehavior.end())
            continue;
        double vanillaMw = none->second.powerSum / none->second.n;
        double leasedMw = leased->second.powerSum / leased->second.n;
        sink.addRow(
            {{"group", ResultSink::Value::str(behavior)},
             {"devices", ResultSink::Value::count(none->second.n +
                                                  leased->second.n)},
             {"vanilla_mw", ResultSink::Value::num(vanillaMw)},
             {"leaseos_mw", ResultSink::Value::num(leasedMw)},
             {"reduction_pct", ResultSink::Value::num(
                                   harness::reductionPercent(vanillaMw,
                                                             leasedMw))}});
    }

    sink.addSeparator();
    double vanillaMw = perMode["None"].powerSum / perMode["None"].n;
    double leasedMw = perMode["LeaseOS"].powerSum / perMode["LeaseOS"].n;
    sink.addRow(
        {{"group", ResultSink::Value::str("fleet")},
         {"devices", ResultSink::Value::count(
                         static_cast<std::int64_t>(results.size()))},
         {"vanilla_mw", ResultSink::Value::num(vanillaMw)},
         {"leaseos_mw", ResultSink::Value::num(leasedMw)},
         {"reduction_pct", ResultSink::Value::num(
                               harness::reductionPercent(vanillaMw,
                                                         leasedMw))}});
    // Throughput goes to the JSON artifact only: its columns differ from
    // the power table's, and TextTableSink headers come from row 1. It
    // keeps the deterministic counts; the committed file must not change
    // when nothing but the host's speed did.
    json.addRow(
        {{"group", ResultSink::Value::str("throughput")},
         {"devices", ResultSink::Value::count(
                         static_cast<std::int64_t>(results.size()))},
         {"events", ResultSink::Value::count(
                        static_cast<std::int64_t>(totalEvents))},
         {"allocs", ResultSink::Value::count(
                        static_cast<std::int64_t>(allocs))},
         {"allocs_per_event",
          ResultSink::Value::num(
              static_cast<double>(allocs) / totalEvents, 4)}});
    // Per-device MetricRegistry rollups — JSON artifact only, one row per
    // device, every registered metric flattened to a key. The stdout
    // table stays the aggregate view.
    for (const auto &r : results) {
        ResultSink::Row row;
        row.emplace_back("group", ResultSink::Value::str("device"));
        row.emplace_back("name", ResultSink::Value::str(r.name));
        row.emplace_back("app_mw", ResultSink::Value::num(r.appPowerMw, 3));
        for (const auto &[metricName, value] : r.metrics)
            row.emplace_back(metricName, ResultSink::Value::num(value, 3));
        json.addRow(row);
    }
    sink.finish();
    std::printf("\nSimulated %.0f events in %.2f s wall — %.0f events/s "
                "across %d worker(s); %.4f heap allocs/event.\n",
                totalEvents, wallSec, totalEvents / wallSec, jobs,
                static_cast<double>(allocs) / totalEvents);
    return 0;
}
