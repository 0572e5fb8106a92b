#ifndef LEASEOS_SIM_TIME_SERIES_H
#define LEASEOS_SIM_TIME_SERIES_H

/**
 * @file
 * Time-stamped sample series, the backing store for every figure.
 *
 * The paper's characterisation figures (Figs. 1-4) are per-minute metric
 * vectors; the evaluation figures (Figs. 9, 11-14) are series or grouped
 * bars. TimeSeries collects (time, value) points and renders them as
 * aligned text columns so the bench binaries can print the same series
 * the paper plots (CSV export: harness::maybeExportSeriesCsv).
 */

#include <string>
#include <vector>

#include "sim/time.h"

namespace leaseos::sim {

/**
 * Ordered sequence of (timestamp, value) samples.
 */
class TimeSeries
{
  public:
    struct Point {
        Time t;
        double value;
    };

    explicit TimeSeries(std::string name = "") : name_(std::move(name)) {}

    void record(Time t, double value) { points_.push_back({t, value}); }

    const std::string &name() const { return name_; }
    const std::vector<Point> &points() const { return points_; }
    std::size_t size() const { return points_.size(); }
    bool empty() const { return points_.empty(); }

    double sum() const;
    double mean() const;
    double max() const;
    double min() const;

  private:
    std::string name_;
    std::vector<Point> points_;
};

/**
 * Render several series that share a time axis as an aligned text table,
 * one row per timestamp (union of the series' timestamps; missing cells
 * print as blanks). This is the "figure" format the bench binaries emit.
 */
std::string renderSeriesTable(const std::vector<const TimeSeries *> &series,
                              const std::string &timeUnit = "s");

} // namespace leaseos::sim

#endif // LEASEOS_SIM_TIME_SERIES_H
