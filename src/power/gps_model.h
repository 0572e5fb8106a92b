#ifndef LEASEOS_POWER_GPS_MODEL_H
#define LEASEOS_POWER_GPS_MODEL_H

/**
 * @file
 * GPS receiver hardware model.
 *
 * The receiver is Off when no request is outstanding. With requests it
 * enters Searching (the expensive state); with a good sky view it acquires
 * a fix after a short delay and drops to Tracking. With poor signal (the
 * BetterWeather case: "inside a building") it stays in Searching forever —
 * the Frequent-Ask misbehaviour of Fig. 1 burns power right here.
 */

#include <span>
#include <vector>

#include "power/component.h"
#include "sim/time.h"

namespace leaseos::power {

/**
 * GPS receiver state machine with per-uid attribution.
 */
class GpsModel : public PowerComponent
{
  public:
    enum class State { Off, Searching, Tracking };

    /** Time needed from search start to fix under good signal. */
    static constexpr sim::Time kFixAcquireDelay = sim::Time::fromSeconds(8.0);

    GpsModel(sim::Simulator &sim, EnergyAccountant &accountant,
             const DeviceProfile &profile);

    /**
     * Uids with outstanding location requests (from the OS service),
     * sorted and without repeats.
     */
    void setRequestOwners(std::span<const Uid> owners);

    /** Sky-view quality (from env::GpsEnvironment). */
    void setSignalGood(bool good);

    State state() const { return state_; }
    bool hasFix() const { return state_ == State::Tracking; }

    /** Hash the receiver state (DESIGN.md §11). */
    void digestState(sim::StateDigest &d) const;

  private:
    void reevaluate();
    void setState(State s);
    void updatePower();

    ChannelId channel_;
    State state_ = State::Off;
    bool signalGood_ = true;
    std::vector<Uid> owners_;
    sim::EventId fixEvent_ = sim::kInvalidEventId;
};

} // namespace leaseos::power

#endif // LEASEOS_POWER_GPS_MODEL_H
