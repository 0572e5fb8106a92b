/**
 * @file
 * Custom utility example — the paper's Fig. 6 scenario, end to end.
 *
 * TapAndTurn shows a rotation icon whenever the orientation sensor
 * reports a change; its IUtilityCounter reports 100 * clicks / rotations.
 * Scenario A: the phone shuffles in a pocket all night, icons appear,
 * nobody clicks → utility collapses → the sensor lease is deferred.
 * Scenario B: an attentive user clicks the icon → utility stays high →
 * the lease keeps renewing and the app works normally.
 */

#include <iostream>

#include "apps/buggy/tapandturn.h"
#include "harness/device.h"

using namespace leaseos;
using sim::operator""_s;
using sim::operator""_min;

namespace {

void
runScenario(bool user_clicks)
{
    harness::DeviceConfig config;
    config.mode = harness::MitigationMode::LeaseOS;
    harness::Device device(config);

    auto &app = device.install<apps::TapAndTurn>();
    device.start();

    sim::PeriodicHandle clicks;
    if (user_clicks) {
        // The user clicks the rotation icon shortly after each rotation.
        clicks = device.simulator().schedulePeriodicScoped(
            125_s, [&app] { app.clickIcon(); });
    }

    device.runFor(30_min);

    auto &mgr = device.leaseos()->manager();
    std::cout << "  rotations shown: " << app.rotations()
              << ", clicks: " << app.clicks() << "\n"
              << "  sensor app power: " << device.appPowerMw(app.uid())
              << " mW\n"
              << "  lease deferrals: " << mgr.totalDeferrals() << " ("
              << (mgr.totalDeferrals() > 0 ? "Low-Utility caught"
                                           : "kept renewing")
              << ")\n\n";
}

} // namespace

int
main()
{
    std::cout << "Fig. 6: TapAndTurn with an IUtilityCounter "
                 "(score = 100 * clicks / rotations)\n\n";

    std::cout << "Scenario A: phone in pocket, icons ignored\n";
    runScenario(false);

    std::cout << "Scenario B: attentive user clicking the icon\n";
    runScenario(true);

    std::cout << "The custom score is only a hint: if the generic utility "
                 "is already very low the app cannot talk its way out "
                 "(abuse guard, §3.3).\n";
    return 0;
}
