/**
 * @file
 * Reproduces the §7.4 usability experiment: three representative normal
 * background apps (RunKeeper fitness tracking, Spotify streaming, Haven
 * monitoring — plus the Trepn profiler anecdote) under LeaseOS vs a pure
 * time-based throttling scheme ("essentially leases with only a single
 * term").
 *
 * Expected shape: LeaseOS continuously renews every lease (zero
 * deferrals, no disruption); throttling stops all three apps' background
 * function once the hold limit passes.
 */

#include <iostream>

#include "apps/normal/haven.h"
#include "apps/normal/runkeeper.h"
#include "apps/normal/spotify.h"
#include "apps/normal/trepn_profiler.h"
#include "harness/device.h"
#include "harness/figure.h"
#include "harness/table.h"

using namespace leaseos;
using sim::operator""_min;
using harness::TextTable;

namespace {

struct UsabilityRow {
    std::string app;
    std::string function;
    bool disrupted = false;
    std::string detail;
};

template <typename Installer>
UsabilityRow
runCase(harness::MitigationMode mode, Installer installer)
{
    harness::DeviceConfig cfg;
    cfg.mode = mode;
    harness::Device device(cfg);
    device.gpsEnv().setVelocity(2.5, 0.5); // RunKeeper user is out running
    device.motion().setStationary(false);
    UsabilityRow row = installer(device);
    device.start();
    device.runFor(30_min);
    return row;
}

} // namespace

int
main()
{
    std::cout << harness::figureHeader(
        "Section 7.4",
        "Usability impact on legitimate background apps: LeaseOS vs pure "
        "time-based throttling (single-term leases, 5 min hold limit). "
        "30-minute runs.");

    TextTable table({"App", "Background function", "LeaseOS",
                     "Throttling"});

    struct CaseDef {
        std::string name;
        std::string function;
        std::function<UsabilityRow(harness::Device &)> install;
    };

    std::vector<CaseDef> cases;
    cases.push_back(
        {"RunKeeper", "fitness tracking (GPS+sensors)",
         [](harness::Device &device) {
             auto &app = device.install<apps::RunKeeper>();
             UsabilityRow row;
             device.simulator().scheduleAt(sim::Time::fromMinutes(30.0) -
                                               sim::Time::fromMillis(1),
                                           [&app, &row] {
                 std::uint64_t expected = app.expectedSamples();
                 row.disrupted =
                     app.samplesWritten() < expected * 9 / 10;
                 row.detail = std::to_string(app.samplesWritten()) + "/" +
                     std::to_string(expected) + " samples";
             });
             return row;
         }});
    cases.push_back({"Spotify", "music streaming",
                     [](harness::Device &device) {
                         auto &app = device.install<apps::Spotify>();
                         UsabilityRow row;
                         device.simulator().scheduleAt(
                             sim::Time::fromMinutes(30.0) -
                                 sim::Time::fromMillis(1),
                             [&app, &row] {
                                 row.disrupted = app.stalled() ||
                                     app.playedSeconds() < 0.9 * 1800.0;
                                 row.detail = TextTable::fmt(
                                                  app.playedSeconds() /
                                                      60.0,
                                                  1) +
                                     " min played";
                             });
                         return row;
                     }});
    cases.push_back({"Haven", "intruder monitoring (sensors)",
                     [](harness::Device &device) {
                         auto &app = device.install<apps::Haven>();
                         UsabilityRow row;
                         device.simulator().scheduleAt(
                             sim::Time::fromMinutes(30.0) -
                                 sim::Time::fromMillis(1),
                             [&app, &row] {
                                 row.disrupted = app.stalled();
                                 row.detail =
                                     std::to_string(app.observations()) +
                                     " observations";
                             });
                         return row;
                     }});
    cases.push_back({"Trepn profiler", "100 ms counter sampling",
                     [](harness::Device &device) {
                         auto &app = device.install<apps::TrepnProfiler>();
                         UsabilityRow row;
                         device.simulator().scheduleAt(
                             sim::Time::fromMinutes(30.0) -
                                 sim::Time::fromMillis(1),
                             [&app, &row] {
                                 row.disrupted = app.stalled();
                                 row.detail =
                                     std::to_string(app.samples()) +
                                     " samples";
                             });
                         return row;
                     }});

    for (auto &def : cases) {
        UsabilityRow lease =
            runCase(harness::MitigationMode::LeaseOS, def.install);
        UsabilityRow throttle =
            runCase(harness::MitigationMode::OneShotThrottle, def.install);
        table.addRow({def.name, def.function,
                      (lease.disrupted ? "DISRUPTED " : "ok ") +
                          lease.detail,
                      (throttle.disrupted ? "DISRUPTED " : "ok ") +
                          throttle.detail});
    }
    std::cout << table.toString();
    std::cout << "\nPaper: all three apps (and Trepn) run undisturbed "
                 "under LeaseOS; all experience disruption under pure "
                 "throttling.\n";
    return 0;
}
