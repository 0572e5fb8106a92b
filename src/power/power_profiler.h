#ifndef LEASEOS_POWER_POWER_PROFILER_H
#define LEASEOS_POWER_POWER_PROFILER_H

/**
 * @file
 * Sampled power profiler (Trepn / Monsoon analog).
 *
 * The evaluation samples power every 100 ms (§7.3) and the §2 profiling
 * tool samples per-app metric vectors every 60 s. PowerProfiler produces
 * the power side: a total-power series and per-uid series, computed as
 * average power over each sampling interval from the accountant's exact
 * energy integrals (which is what a hardware power monitor reports too).
 */

#include <map>
#include <vector>

#include "common/ids.h"
#include "power/energy_accountant.h"
#include "sim/simulator.h"
#include "sim/time_series.h"

namespace leaseos::power {

/**
 * Periodic sampler turning accountant integrals into TimeSeries.
 */
class PowerProfiler
{
  public:
    PowerProfiler(sim::Simulator &sim, EnergyAccountant &accountant,
                  sim::Time period);

    /** Track an app's power (call before start()). */
    void watchUid(Uid uid);

    /** Begin sampling. */
    void start();

    /**
     * Stop sampling: the pending tick is cancelled immediately (no zombie
     * event stays in the queue). start() may be called again later.
     */
    void
    stop()
    {
        running_ = false;
        tick_.cancel();
    }

    const sim::TimeSeries &totalSeries() const { return total_; }
    const sim::TimeSeries &uidSeries(Uid uid) const;

    /** Average app power (mW) over the profiled span so far. */
    double averageUidPowerMw(Uid uid) const;

    /** Average system power (mW) over the profiled span so far. */
    double averageTotalPowerMw() const;

    sim::Time period() const { return period_; }

    /**
     * Hash the sampled series and interval baselines (DESIGN.md §11).
     */
    void digestState(sim::StateDigest &d) const;

  private:
    void sample();

    sim::Simulator &sim_;
    EnergyAccountant &accountant_;
    sim::Time period_;
    bool running_ = false;
    /** Owns the sampling loop; cancelled by stop() / destruction. */
    sim::PeriodicHandle tick_;

    sim::TimeSeries total_;
    // leaselint: allow(flat-map-hotpath) -- touched once per sample tick
    std::map<Uid, sim::TimeSeries> perUid_;
    double lastTotalMj_ = 0.0;
    // leaselint: allow(flat-map-hotpath) -- touched once per sample tick
    std::map<Uid, double> lastUidMj_;
};

} // namespace leaseos::power

#endif // LEASEOS_POWER_POWER_PROFILER_H
