/**
 * @file
 * Reproduces Table 1: which misbehaviour types can occur for which
 * resources. The matrix is *derived* by probing the behaviour classifier
 * with synthetic term stats representing each behaviour pattern, so it
 * documents what the implementation actually enforces (e.g. FAB is only
 * reachable for GPS). Emitted through the ResultSink pair: text table on
 * stdout plus BENCH_table1_matrix.json.
 */

#include <iostream>

#include "harness/result_sink.h"
#include "lease/behavior_classifier.h"

using namespace leaseos;
using namespace leaseos::lease;
using harness::ResultSink;

namespace {

LeaseStat
statFor(BehaviorType target)
{
    LeaseStat s;
    s.termStart = sim::Time::zero();
    s.termEnd = sim::Time::fromSeconds(5.0);
    switch (target) {
      case BehaviorType::FrequentAsk:
        s.requestSeconds = 4.0;
        s.failedRequestSeconds = 4.0;
        break;
      case BehaviorType::LongHolding:
        s.holdingSeconds = 5.0;
        s.usageSeconds = 0.0;
        s.utilityScore = 50.0;
        break;
      case BehaviorType::LowUtility:
        s.holdingSeconds = 5.0;
        s.usageSeconds = 1.0;
        s.utilityScore = 5.0;
        break;
      case BehaviorType::ExcessiveUse:
        s.holdingSeconds = 5.0;
        s.usageSeconds = 4.5;
        s.utilityScore = 95.0;
        break;
      case BehaviorType::Normal:
        break;
    }
    return s;
}

} // namespace

int
main()
{
    harness::TextTableSink table;
    harness::JsonSink json(harness::benchArtifactPath("table1_matrix"));
    harness::TeeSink sink({&table, &json});
    sink.begin(
        "Table 1",
        "Four types of energy misbehaviour x resources. A check means the "
        "classifier can produce that behaviour for the resource; '*' "
        "marks the resources whose Use semantics differ (GPS/sensor "
        "utilisation is Activity-bound-lifetime, not physical use).");

    const struct {
        ResourceType rtype;
        const char *label;
        bool starredUse;
    } resources[] = {
        {ResourceType::Wakelock, "CPU (wakelock)", false},
        {ResourceType::Screen, "Screen", false},
        {ResourceType::Wifi, "Wi-Fi radio", false},
        {ResourceType::Audio, "Audio", false},
        {ResourceType::Gps, "GPS", true},
        {ResourceType::Sensor, "Sensors", true},
        {ResourceType::Bluetooth, "Bluetooth", true},
    };
    const struct {
        BehaviorType behavior;
        const char *column;
    } columns[] = {
        {BehaviorType::FrequentAsk, "FAB (Ask)"},
        {BehaviorType::LongHolding, "LHB (Use)"},
        {BehaviorType::LowUtility, "LUB (Use)"},
        {BehaviorType::ExcessiveUse, "EUB (Release)"},
    };

    for (const auto &res : resources) {
        ResultSink::Row row{
            {"Resource", ResultSink::Value::str(res.label)}};
        for (const auto &column : columns) {
            BehaviorType got = classify(res.rtype, statFor(column.behavior));
            bool reachable = got == column.behavior;
            std::string mark = reachable ? "yes" : "no";
            if (reachable && res.starredUse &&
                (column.behavior == BehaviorType::LongHolding))
                mark += "*";
            row.emplace_back(column.column, ResultSink::Value::str(mark));
        }
        sink.addRow(row);
    }
    sink.finish();
    std::cout << "\nPaper: FAB only occurs for GPS; all resources can "
                 "exhibit LHB/LUB/EUB; audio LUB is rescued by the "
                 "audible-output generic utility in practice.\n";
    return 0;
}
