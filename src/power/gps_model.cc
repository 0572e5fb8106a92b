#include "power/gps_model.h"

#include "power/checkpoint_io.h"

#include <utility>

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
    bool had_fix = hasFix();
    state_ = s;
    updatePower();
    bool has_fix = hasFix();
    if (had_fix != has_fix)
        for (const auto &fn : fixListeners_) fn(has_fix);
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
        fixEvent_ = sim_.schedule(fixAcquireDelay_, [this] {
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
GpsModel::setRequestOwners(std::vector<Uid> owners)
{
    owners_ = std::move(owners);
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
GpsModel::addFixListener(std::function<void(bool)> fn)
{
    fixListeners_.push_back(std::move(fn));
}

void
GpsModel::saveState(sim::CheckpointWriter &w) const
{
    w.beginSection("gps", 2);
    w.u8(static_cast<std::uint8_t>(state_));
    w.u8(signalGood_ ? 1 : 0);
    bool fixPending =
        fixEvent_ != sim::kInvalidEventId && sim_.pending(fixEvent_);
    w.u8(fixPending ? 1 : 0);
    ckpt::writeUids(w, owners_);
    w.time(fixAcquireDelay_);
    w.endSection();
}

} // namespace leaseos::power
