#include "lease/utility/generic_utility.h"

#include <algorithm>
#include <cmath>

namespace leaseos::lease::utility {

namespace {

/** Score component from UI visibility: interaction beats passive update. */
double
uiScore(const Signals &s)
{
    if (s.interactions > 0) return 90.0;
    if (s.uiUpdates > 0) return 75.0;
    return 0.0;
}

} // namespace

double
genericScore(ResourceType rtype, const Signals &s)
{
    double ui = uiScore(s);

    switch (rtype) {
      case ResourceType::Wakelock:
      case ResourceType::Wifi: {
        // Exception storms mark useless work regardless of UI state.
        if (s.usageSeconds > 0.0) {
            double rate =
                static_cast<double>(s.exceptions) / s.usageSeconds;
            if (rate > 0.2) return 5.0;
        } else if (s.exceptions > 2) {
            return 5.0;
        }
        if (ui > 0.0) return ui;
        // Background work completing without errors is presumed useful.
        return s.usageSeconds > 0.0 ? 60.0 : kNeutralScore;
      }

      case ResourceType::Screen:
        // A lit screen only has value if someone is looking: interactions
        // are the only trustworthy generic signal.
        if (s.interactions > 0) return 90.0;
        return s.uiUpdates > 0 ? 30.0 : kNeutralScore;

      case ResourceType::Gps: {
        // Distance moved per unit time: ~walking pace saturates the score.
        double speed =
            s.termSeconds > 0.0 ? s.distanceMeters / s.termSeconds : 0.0;
        double movement = std::min(100.0, speed * 80.0);
        return std::max(ui, movement);
      }

      case ResourceType::Sensor:
      case ResourceType::Bluetooth:
        // Sensor/scan feeds that never surface anything to the user are
        // presumed low value; UI evidence restores them.
        return ui > 0.0 ? ui : 15.0;

      case ResourceType::Audio:
        // Audible output is its own evidence of utility.
        return std::max(ui, 80.0);
    }
    return kNeutralScore;
}

double
termScore(ResourceType rtype, const LeaseStat &stat)
{
    Signals signals;
    signals.termSeconds = stat.termSeconds();
    signals.usageSeconds = stat.usageSeconds;
    signals.exceptions = stat.exceptions;
    signals.uiUpdates = stat.uiUpdates;
    signals.interactions = stat.interactions;
    signals.distanceMeters = stat.distanceMeters;
    if (rtype == ResourceType::Audio && !(stat.usageSeconds > 0.0)) {
        signals.usageSeconds = 0.0;
        return genericScore(ResourceType::Wakelock, signals);
    }
    return genericScore(rtype, signals);
}

double
combine(double generic, IUtilityCounter *custom)
{
    if (!custom) return generic;
    if (generic < kVeryLowBar) return generic; // abuse guard
    return std::clamp(custom->getScore(), 0.0, 100.0);
}

} // namespace leaseos::lease::utility
