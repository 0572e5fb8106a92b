/**
 * @file
 * Usability example (§7.4): legitimate heavy background apps under
 * LeaseOS versus naive time-based throttling.
 *
 * RunKeeper records a workout (GPS + sensors + wakelock) while Spotify
 * streams music. LeaseOS keeps renewing their leases because the
 * resources produce real utility; a single-term throttler kills both
 * after its hold limit — breaking exactly the apps the user cares about.
 */

#include <iostream>

#include "apps/normal/runkeeper.h"
#include "apps/normal/spotify.h"
#include "harness/device.h"

using namespace leaseos;
using sim::operator""_min;

namespace {

void
runWorld(harness::MitigationMode mode, const char *label)
{
    harness::DeviceConfig config;
    config.mode = mode;
    harness::Device device(config);

    // The user is out on a run, phone in an armband.
    device.gpsEnv().setVelocity(2.8, 0.3);
    device.motion().setStationary(false);

    auto &runkeeper = device.install<apps::RunKeeper>();
    auto &spotify = device.install<apps::Spotify>();
    device.start();
    device.runFor(30_min);

    std::cout << label << ":\n";
    std::cout << "  RunKeeper: " << runkeeper.samplesWritten() << "/"
              << runkeeper.expectedSamples() << " track samples "
              << (runkeeper.samplesWritten() >=
                          runkeeper.expectedSamples() * 9 / 10
                      ? "(tracking intact)"
                      : "(TRACKING BROKEN)")
              << "\n";
    std::cout << "  Spotify:   " << spotify.playedSeconds() / 60.0
              << " min of music "
              << (spotify.stalled() ? "(PLAYBACK STOPPED)"
                                    : "(playing fine)")
              << "\n\n";
}

} // namespace

int
main()
{
    std::cout << "Legitimate background apps: 30-minute workout with "
                 "music\n\n";
    runWorld(harness::MitigationMode::LeaseOS, "LeaseOS");
    runWorld(harness::MitigationMode::OneShotThrottle,
             "Time-based throttling (5 min limit)");
    std::cout << "Utilitarian leases reward apps that use resources "
                 "efficiently; blind throttling cannot tell them from "
                 "leaks.\n";
    return 0;
}
