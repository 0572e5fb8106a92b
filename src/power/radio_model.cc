#include "power/radio_model.h"

#include "sim/state_digest.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace leaseos::power {

RadioModel::RadioModel(sim::Simulator &sim, EnergyAccountant &accountant,
                       const DeviceProfile &profile)
    : PowerComponent(sim, accountant, profile, "radio"),
      wifiChannel_(accountant.makeChannel("wifi")),
      lastAdvance_(sim.now())
{
    const ChannelId cell = accountant.makeChannel("cell");
    updateWifiPower();
    accountant_.setPower(cell, profile_.cellIdleMw, {kSystemUid});
}

void
RadioModel::advance()
{
    sim::Time now = sim_.now();
    if (now <= lastAdvance_) {
        lastAdvance_ = now;
        return;
    }
    double dt = (now - lastAdvance_).seconds();
    for (const InFlight &f : wifiInFlight_)
        wifiActiveSeconds_[f.total].second += dt;
    lastAdvance_ = now;
}

void
RadioModel::updateWifiPower()
{
    if (!wifiActiveUids_.empty()) {
        accountant_.setPower(wifiChannel_, profile_.wifiActiveMw,
                             wifiActiveUids_);
    } else if (!wifiLockOwners_.empty()) {
        accountant_.setPower(wifiChannel_, profile_.wifiLockMw,
                             wifiLockOwners_);
    } else {
        accountant_.setPower(wifiChannel_, profile_.wifiIdleMw,
                             {kSystemUid});
    }
}

void
RadioModel::setWifiLockOwners(std::span<const Uid> owners)
{
    advance();
    wifiLockOwners_.assign(owners.begin(), owners.end());
    updateWifiPower();
}

sim::Time
RadioModel::transferWifi(Uid uid, std::uint64_t bytes)
{
    advance();
    double seconds =
        static_cast<double>(bytes) / profile_.wifiThroughputBps;
    // Clamp tiny transfers to a minimal tail time: radios stay in the
    // high-power state briefly after any packet.
    seconds = std::max(seconds, 0.05);
    wifiActiveUids_.push_back(uid);
    std::size_t i = inFlightIndex(uid);
    if (i < wifiInFlight_.size())
        ++wifiInFlight_[i].count;
    else
        wifiInFlight_.push_back(
            InFlight{uid, 1, totalIndex(wifiActiveSeconds_, uid)});
    updateWifiPower();
    sim::Time dur = sim::Time::fromSeconds(seconds);
    sim_.schedule(dur, [this, uid] {
        advance();
        std::size_t i = inFlightIndex(uid);
        assert(i < wifiInFlight_.size());
        if (--wifiInFlight_[i].count == 0) wifiInFlight_.erase(i);
        auto it = std::find(wifiActiveUids_.begin(), wifiActiveUids_.end(),
                            uid);
        if (it != wifiActiveUids_.end()) wifiActiveUids_.erase(it);
        updateWifiPower();
    });
    return dur;
}

std::size_t
RadioModel::inFlightIndex(Uid uid) const
{
    std::size_t i = 0;
    while (i < wifiInFlight_.size() && wifiInFlight_[i].uid != uid) ++i;
    return i;
}

double
RadioModel::wifiActiveSeconds(Uid uid)
{
    advance();
    return totalOf(wifiActiveSeconds_, uid);
}


void
RadioModel::digestState(sim::StateDigest &d) const
{
    d.u32s(wifiLockOwners_);
    d.u32s(wifiActiveUids_);
    d.time(lastAdvance_);
    d.u64(wifiInFlight_.size());
    for (const InFlight &f : wifiInFlight_) {
        d.u32(static_cast<std::uint32_t>(f.uid));
        d.i64(f.count);
    }
    digestTotals(d, wifiActiveSeconds_);
}

} // namespace leaseos::power
