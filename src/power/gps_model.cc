#include "power/gps_model.h"

#include "sim/state_digest.h"

namespace leaseos::power {

GpsModel::GpsModel(sim::Simulator &sim, EnergyAccountant &accountant,
                   const DeviceProfile &profile)
    : PowerComponent(sim, accountant, profile, "gps"),
      channel_(accountant.makeChannel("gps"))
{
    updatePower();
}

void
GpsModel::setState(State s)
{
    if (s == state_) return;
    state_ = s;
    updatePower();
}

void
GpsModel::reevaluate()
{
    if (owners_.empty()) {
        if (fixEvent_ != sim::kInvalidEventId) {
            sim_.cancel(fixEvent_);
            fixEvent_ = sim::kInvalidEventId;
        }
        setState(State::Off);
        return;
    }
    if (state_ == State::Tracking && signalGood_) {
        updatePower(); // owners may have changed
        return;
    }
    if (!signalGood_) {
        // Lost (or can't get) the sky view: regress to Searching.
        if (fixEvent_ != sim::kInvalidEventId) {
            sim_.cancel(fixEvent_);
            fixEvent_ = sim::kInvalidEventId;
        }
        setState(State::Searching);
        return;
    }
    // Requests outstanding, good signal, not yet tracking: search, then
    // acquire after the TTFF delay.
    setState(State::Searching);
    if (fixEvent_ == sim::kInvalidEventId) {
        fixEvent_ = sim_.schedule(kFixAcquireDelay, [this] {
            fixEvent_ = sim::kInvalidEventId;
            if (!owners_.empty() && signalGood_) setState(State::Tracking);
        });
    }
}

void
GpsModel::updatePower()
{
    double mw = 0.0;
    if (state_ == State::Searching) mw = profile_.gpsSearchMw;
    else if (state_ == State::Tracking) mw = profile_.gpsTrackMw;
    accountant_.setPower(channel_, mw, owners_);
}

void
GpsModel::setRequestOwners(std::span<const Uid> owners)
{
    owners_.assign(owners.begin(), owners.end());
    reevaluate();
    // The state may be unchanged but the attribution set is new.
    updatePower();
}

void
GpsModel::setSignalGood(bool good)
{
    signalGood_ = good;
    reevaluate();
}

void
GpsModel::digestState(sim::StateDigest &d) const
{
    d.u8(static_cast<std::uint8_t>(state_));
    d.u8(signalGood_ ? 1 : 0);
    bool fixPending =
        fixEvent_ != sim::kInvalidEventId && sim_.pending(fixEvent_);
    d.u8(fixPending ? 1 : 0);
    d.u32s(owners_);
}

} // namespace leaseos::power
