/**
 * @file
 * Reproduces the §7.6 end-to-end battery test: one buggy GPS app in the
 * system plus a realistic usage day (music, video, browsing, standby);
 * vanilla Android empties the battery in ~12 h while LeaseOS lasts ~15 h.
 * The drain is the accountant's exact energy integral, read every 10
 * virtual minutes; nothing is sampled.
 */

#include <iostream>

#include "apps/buggy/gpslogger.h"
#include "apps/normal/generic_apps.h"
#include "harness/device.h"
#include "harness/figure.h"
#include "harness/table.h"

using namespace leaseos;
using sim::operator""_min;

namespace {

double
runDay(bool leased)
{
    harness::DeviceConfig cfg;
    cfg.mode = leased ? harness::MitigationMode::LeaseOS
                      : harness::MitigationMode::None;
    // The paper used the Monsoon-rigged phone; we take the mid-range
    // Nexus 5X.
    cfg.profile = power::profiles::nexus5x();
    harness::Device device(cfg);

    // The culprit: a buggy GPS logger left running in the background.
    device.install<apps::GpsLogger>();

    // Usage mix through the day: continuous background music (the
    // paper's 2 h of music generalised to an all-day companion), plus a
    // 30-minute interactive session (video / browsing alternating) every
    // two hours while the user is awake.
    device.install<apps::GenericInteractiveApp>(apps::GenericKind::Music,
                                                "music");
    auto &video = device.install<apps::GenericInteractiveApp>(
        apps::GenericKind::Video, "video");
    auto &browser = device.install<apps::GenericInteractiveApp>(
        apps::GenericKind::Browser, "browser");
    for (int block = 0; block < 24; ++block) {
        Uid uid = block % 2 == 0 ? video.uid() : browser.uid();
        device.user().scheduleSession(
            sim::Time::fromHours(0.5 + 2.0 * block), 30_min, {uid});
    }

    device.start();
    // Advance in 10-minute steps until the battery runs out.
    while (!device.battery().empty() &&
           device.simulator().now() < sim::Time::fromHours(48.0)) {
        device.runFor(10_min);
    }
    return device.simulator().now().hours();
}

} // namespace

int
main()
{
    std::cout << harness::figureHeader(
        "Section 7.6 (end-to-end)",
        "Battery life with one buggy GPS app plus a realistic usage day "
        "(2 h music, 1 h video, 30 min browsing, standby). Paper: ~12 h "
        "without leases vs ~15 h with LeaseOS.");

    double vanilla_hours = runDay(false);
    std::cerr << "[battery] vanilla done\n";
    double leased_hours = runDay(true);
    std::cerr << "[battery] leased done\n";

    harness::TextTable table({"System", "Battery life (h)"});
    table.addRow({"Android w/o lease",
                  harness::TextTable::fmt(vanilla_hours, 1)});
    table.addRow({"LeaseOS", harness::TextTable::fmt(leased_hours, 1)});
    std::cout << table.toString();
    std::cout << "\nextension: +"
              << harness::TextTable::fmt(leased_hours - vanilla_hours, 1)
              << " h ("
              << harness::TextTable::pct(
                     100.0 * (leased_hours - vanilla_hours) /
                     vanilla_hours)
              << ")\n";
    return 0;
}
