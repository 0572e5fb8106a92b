#ifndef LEASEOS_SIM_STATS_H
#define LEASEOS_SIM_STATS_H

/**
 * @file
 * Streaming sample statistics: Accumulator tracks the moments of a sample
 * stream (mean / min / max / stddev). Distribution reporting goes through
 * the MetricRegistry's histograms (obs/metric_registry.h).
 */

#include <cstdint>

namespace leaseos::sim {

class CheckpointWriter;

/**
 * Streaming sample statistics (Welford's algorithm for variance).
 */
class Accumulator
{
  public:
    void record(double v);

    std::uint64_t count() const { return n_; }
    double mean() const { return n_ ? mean_ : 0.0; }
    double min() const { return n_ ? min_ : 0.0; }
    double max() const { return n_ ? max_ : 0.0; }
    double sum() const { return sum_; }
    /** Sample variance; 0 when fewer than two samples. */
    double variance() const;
    double stddev() const;

    /** Raw-field serialization (embedded in the owner's section). */
    void saveState(CheckpointWriter &w) const;

  private:
    std::uint64_t n_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double sum_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

} // namespace leaseos::sim

#endif // LEASEOS_SIM_STATS_H
