/**
 * @file
 * Reproduces Table 5 — the paper's headline result: for each of the 20
 * real-world buggy apps, the app-level power on vanilla Android and under
 * LeaseOS, aggressive Doze (Doze*), and DefDroid, with the reduction
 * percentages: each run's average power over 30 minutes on a Pixel XL.
 *
 * Expected shape (not absolute numbers): LeaseOS reduces wasted power by
 * ~92 % on average and beats Doze* (~69 %) and DefDroid (~62 %); Doze is
 * nearly useless on the screen-wakelock rows (it never touches the
 * screen); DefDroid is weakest on the GPS rows.
 *
 * The 80 cells (20 apps x 4 modes) are independent simulations and run on
 * a worker pool: pass `--jobs N` (or set LEASEOS_JOBS) to pick the pool
 * size, default hardware_concurrency. Results are identical for every
 * job count. A machine-readable copy of the table lands in
 * BENCH_table5_mitigation.json.
 *
 * `--trace-dir=DIR` turns on telemetry for the sweep (the nightly CI
 * configuration): every cell collects a MetricRegistry rollup into
 * DIR/rollup.json, and each of the 20 LeaseOS cells exports its trace
 * ring to DIR/<app>_leaseos.jsonl (populated in -DLEASEOS_TRACING=ON
 * builds). The stdout table is unaffected.
 *
 * `--flightrec-dir=DIR` installs an obs::FlightRecorder per cell: if the
 * checked-mode oracle aborts, the cell's trace ring and metrics snapshot
 * land in DIR/flightrec-<cell>-*.json for tools/tracereplay triage.
 */

#include <cstring>
#include <iostream>
#include <string>

#include "apps/registry.h"
#include "harness/experiment.h"
#include "harness/result_sink.h"
#include "harness/runner.h"
#include "harness/table.h"

using namespace leaseos;
using harness::MitigationMode;
using harness::ResultSink;
using harness::TextTable;

int
main(int argc, char **argv)
{
    harness::MitigationRunOptions opt; // 30 min, Pixel XL, user glances

    std::string traceDir;
    std::string flightRecDir;
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], "--trace-dir=", 12) == 0)
            traceDir = argv[i] + 12;
        else if (std::strncmp(argv[i], "--flightrec-dir=", 16) == 0)
            flightRecDir = argv[i] + 16;
    }

    const MitigationMode modes[] = {
        MitigationMode::None, MitigationMode::LeaseOS,
        MitigationMode::DozeAggressive, MitigationMode::DefDroid};

    // One spec per (app, mode) cell, grouped per app so results index as
    // cell = results[appIndex * 4 + modeIndex].
    std::vector<harness::RunSpec> specs;
    for (const auto &spec : apps::table5Specs())
        for (MitigationMode mode : modes) {
            harness::RunSpec run =
                harness::mitigationCellSpec(spec, mode, opt);
            if (!traceDir.empty()) {
                run.collectMetrics = true;
                if (mode == MitigationMode::LeaseOS) {
                    // Lease cells are the interesting traces; a 16K ring
                    // comfortably holds a 30-minute cell's sampled events.
                    run.tracePath = traceDir + "/" + spec.key +
                                    "_leaseos.jsonl";
                    run.traceCapacity = 1u << 14;
                }
            }
            // In checked builds an oracle abort first dumps the cell's
            // trace ring + metrics there for offline tracereplay triage.
            if (!flightRecDir.empty()) run.flightRecordDir = flightRecDir;
            specs.push_back(std::move(run));
        }

    harness::ParallelRunner runner(harness::ParallelRunner::parseArgs(
        argc, argv));
    std::cerr << "[table5] " << specs.size() << " cells on "
              << runner.jobs() << " worker(s)\n";
    auto results = runner.run(specs, [](const harness::RunResult &r) {
        std::cerr << "[table5] " << r.name << " done\n";
    });

    harness::TextTableSink table;
    harness::JsonSink json(
        harness::benchArtifactPath("table5_mitigation"));
    harness::TeeSink sink({&table, &json});
    sink.begin(
        "Table 5",
        "Real-world apps with FAB/LHB/LUB misbehaviour: power (mW) w/o "
        "lease vs LeaseOS / Doze* / DefDroid, and reduction percentages. "
        "30-minute runs, Pixel XL, 100 ms power sampling. Doze* is "
        "force-triggered as in the paper.");

    double sum_lease = 0.0;
    double sum_doze = 0.0;
    double sum_defdroid = 0.0;
    int rows = 0;

    const auto &table5 = apps::table5Specs();
    for (std::size_t a = 0; a < table5.size(); ++a) {
        const auto &spec = table5[a];
        const auto &vanilla = results[a * 4 + 0];
        const auto &leased = results[a * 4 + 1];
        const auto &dozed = results[a * 4 + 2];
        const auto &defdroid = results[a * 4 + 3];

        double r_lease = harness::reductionPercent(vanilla.appPowerMw,
                                                   leased.appPowerMw);
        double r_doze = harness::reductionPercent(vanilla.appPowerMw,
                                                  dozed.appPowerMw);
        double r_defdroid = harness::reductionPercent(
            vanilla.appPowerMw, defdroid.appPowerMw);
        sum_lease += r_lease;
        sum_doze += r_doze;
        sum_defdroid += r_defdroid;
        ++rows;

        sink.addRow({{"App", ResultSink::Value::str(spec.display)},
                     {"Cat.", ResultSink::Value::str(spec.category)},
                     {"Res.", ResultSink::Value::str(spec.resource)},
                     {"Behav.", ResultSink::Value::str(spec.behavior)},
                     {"w/o lease",
                      ResultSink::Value::num(vanilla.appPowerMw)},
                     {"LeaseOS", ResultSink::Value::num(leased.appPowerMw)},
                     {"Doze*", ResultSink::Value::num(dozed.appPowerMw)},
                     {"DefDroid",
                      ResultSink::Value::num(defdroid.appPowerMw)},
                     {"Lease%", ResultSink::Value::num(r_lease)},
                     {"Doze%", ResultSink::Value::num(r_doze)},
                     {"DefDroid%", ResultSink::Value::num(r_defdroid)}});
    }

    sink.addSeparator();
    sink.addRow({{"App", ResultSink::Value::str("Average")},
                 {"Cat.", ResultSink::Value::str("")},
                 {"Res.", ResultSink::Value::str("")},
                 {"Behav.", ResultSink::Value::str("")},
                 {"w/o lease", ResultSink::Value::str("")},
                 {"LeaseOS", ResultSink::Value::str("")},
                 {"Doze*", ResultSink::Value::str("")},
                 {"DefDroid", ResultSink::Value::str("")},
                 {"Lease%", ResultSink::Value::num(sum_lease / rows)},
                 {"Doze%", ResultSink::Value::num(sum_doze / rows)},
                 {"DefDroid%",
                  ResultSink::Value::num(sum_defdroid / rows)}});
    sink.finish();
    if (!traceDir.empty()) {
        // Per-cell metric rollups for the nightly artifact: one row per
        // cell, every registered metric flattened to a key.
        harness::JsonSink rollup(traceDir + "/rollup.json");
        rollup.begin("Table 5 telemetry",
                     "Per-cell MetricRegistry rollups for the 80-cell "
                     "sweep; LeaseOS cells also export trace rings "
                     "alongside this file.");
        for (const auto &r : results) {
            ResultSink::Row row;
            row.emplace_back("cell", ResultSink::Value::str(r.name));
            row.emplace_back("app_mw",
                             ResultSink::Value::num(r.appPowerMw, 3));
            row.emplace_back(
                "trace_events",
                ResultSink::Value::count(static_cast<std::int64_t>(
                    r.traceEventsEmitted)));
            for (const auto &[metricName, value] : r.metrics)
                row.emplace_back(metricName,
                                 ResultSink::Value::num(value, 3));
            rollup.addRow(row);
        }
        rollup.finish();
    }
    std::cout << "\nPaper averages: LeaseOS 92.62%, Doze* 69.64%, "
                 "DefDroid 62.04%.\n";
    return 0;
}
