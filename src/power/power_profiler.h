#ifndef LEASEOS_POWER_POWER_PROFILER_H
#define LEASEOS_POWER_POWER_PROFILER_H

/**
 * @file
 * Average power over a run (Trepn / Monsoon analog).
 *
 * The evaluation takes a run's result as its average power (§7.3), which
 * is what a hardware power monitor reports for the span it measured.
 * PowerProfiler keeps the accountant's energy integrals at start() as a
 * baseline and averages (E(now) − E(start)) / (now − start). The
 * accountant's reads are exact as of now, so no sampling loop is needed.
 */

#include <utility>
#include <vector>

#include "common/ids.h"
#include "power/energy_accountant.h"
#include "sim/simulator.h"
#include "sim/time_series.h"

namespace leaseos::power {

/**
 * Start baseline over the accountant's exact energy integrals.
 */
class PowerProfiler
{
  public:
    PowerProfiler(const sim::Simulator &sim,
                  const EnergyAccountant &accountant)
        : sim_(sim), accountant_(accountant)
    {
    }

    /** Take the baseline; later calls do nothing. */
    void start();

    /** Always empty: nothing is sampled (leasebench still counts it). */
    static const sim::TimeSeries &totalSeries();

    /** Average app power (mW) since start(); 0 before any time passed. */
    double averageUidPowerMw(Uid uid) const;

    /** Average system power (mW) since start(); 0 before any time passed. */
    double averageTotalPowerMw() const;

    /** Hash the start baseline (DESIGN.md §11). */
    void digestState(sim::StateDigest &d) const;

  private:
    /** Seconds since start(), 0 when not started. */
    double elapsedSeconds() const;

    const sim::Simulator &sim_;
    const EnergyAccountant &accountant_;
    bool started_ = false;
    sim::Time startTime_;
    double startTotalMj_ = 0.0;
    /** Energy of each uid that had drawn power before start(). */
    std::vector<std::pair<Uid, double>> startUidMj_;
};

} // namespace leaseos::power

#endif // LEASEOS_POWER_POWER_PROFILER_H
