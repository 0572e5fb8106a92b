#include "power/power_profiler.h"

#include <stdexcept>

#include "sim/state_digest.h"

namespace leaseos::power {

PowerProfiler::PowerProfiler(sim::Simulator &sim,
                             EnergyAccountant &accountant, sim::Time period)
    : sim_(sim), accountant_(accountant), period_(period),
      total_("total_mw")
{
}

void
PowerProfiler::watchUid(Uid uid)
{
    perUid_.emplace(uid,
                    sim::TimeSeries("uid" + std::to_string(uid) + "_mw"));
}

void
PowerProfiler::start()
{
    if (running_) return;
    running_ = true;
    accountant_.sync();
    lastTotalMj_ = accountant_.totalEnergyMj();
    for (auto &[uid, series] : perUid_)
        lastUidMj_[uid] = accountant_.uidEnergyMj(uid);
    tick_ = sim_.schedulePeriodicScoped(period_, [this] { sample(); });
}

void
PowerProfiler::sample()
{
    double dt = period_.seconds();
    // One sync covers the whole sample: every read below is as-of-now.
    accountant_.sync();
    double total = accountant_.totalEnergyMj();
    total_.record(sim_.now(), (total - lastTotalMj_) / dt);
    lastTotalMj_ = total;
    for (auto &[uid, series] : perUid_) {
        double mj = accountant_.uidEnergyMj(uid);
        series.record(sim_.now(), (mj - lastUidMj_[uid]) / dt);
        lastUidMj_[uid] = mj;
    }
}

const sim::TimeSeries &
PowerProfiler::uidSeries(Uid uid) const
{
    auto it = perUid_.find(uid);
    if (it == perUid_.end())
        throw std::out_of_range("uid not watched: " + std::to_string(uid));
    return it->second;
}

double
PowerProfiler::averageUidPowerMw(Uid uid) const
{
    return uidSeries(uid).mean();
}

double
PowerProfiler::averageTotalPowerMw() const
{
    return total_.mean();
}

void
PowerProfiler::digestState(sim::StateDigest &d) const
{
    d.u8(running_ ? 1 : 0);
    d.time(period_);
    d.f64(lastTotalMj_);
    total_.digestState(d);
    d.u64(perUid_.size());
    for (const auto &[uid, series] : perUid_) {
        d.u32(static_cast<std::uint32_t>(uid));
        auto it = lastUidMj_.find(uid);
        d.f64(it == lastUidMj_.end() ? 0.0 : it->second);
        series.digestState(d);
    }
}

} // namespace leaseos::power
