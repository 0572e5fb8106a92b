#include "power/power_profiler.h"

#include "sim/state_digest.h"

namespace leaseos::power {

void
PowerProfiler::start()
{
    if (started_) return;
    started_ = true;
    startTime_ = sim_.now();
    startTotalMj_ = accountant_.totalEnergyMj();
    for (Uid uid : accountant_.knownUids())
        startUidMj_.emplace_back(uid, accountant_.uidEnergyMj(uid));
}

const sim::TimeSeries &
PowerProfiler::totalSeries()
{
    static const sim::TimeSeries empty("total_mw");
    return empty;
}

double
PowerProfiler::elapsedSeconds() const
{
    return started_ ? (sim_.now() - startTime_).seconds() : 0.0;
}

double
PowerProfiler::averageUidPowerMw(Uid uid) const
{
    double seconds = elapsedSeconds();
    if (seconds <= 0.0) return 0.0;
    double baseMj = 0.0;
    for (const auto &[known, mj] : startUidMj_)
        if (known == uid) baseMj = mj;
    return (accountant_.uidEnergyMj(uid) - baseMj) / seconds;
}

double
PowerProfiler::averageTotalPowerMw() const
{
    double seconds = elapsedSeconds();
    if (seconds <= 0.0) return 0.0;
    return (accountant_.totalEnergyMj() - startTotalMj_) / seconds;
}

void
PowerProfiler::digestState(sim::StateDigest &d) const
{
    d.u8(started_ ? 1 : 0);
    d.time(startTime_);
    d.f64(startTotalMj_);
    d.u64(startUidMj_.size());
    for (const auto &[uid, mj] : startUidMj_) {
        d.u32(static_cast<std::uint32_t>(uid));
        d.f64(mj);
    }
}

} // namespace leaseos::power
