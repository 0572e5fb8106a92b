#include "sim/time_series.h"

#include <algorithm>
#include <iomanip>
#include <map>
#include <sstream>

#include "sim/checkpoint.h"

namespace leaseos::sim {

void
TimeSeries::saveState(CheckpointWriter &w) const
{
    w.u64(points_.size());
    for (const auto &p : points_) {
        w.time(p.t);
        w.f64(p.value);
    }
}

double
TimeSeries::sum() const
{
    double s = 0.0;
    for (const auto &p : points_) s += p.value;
    return s;
}

double
TimeSeries::mean() const
{
    return points_.empty() ? 0.0
                           : sum() / static_cast<double>(points_.size());
}

double
TimeSeries::max() const
{
    double m = points_.empty() ? 0.0 : points_.front().value;
    for (const auto &p : points_) m = std::max(m, p.value);
    return m;
}

double
TimeSeries::min() const
{
    double m = points_.empty() ? 0.0 : points_.front().value;
    for (const auto &p : points_) m = std::min(m, p.value);
    return m;
}

std::string
renderSeriesTable(const std::vector<const TimeSeries *> &series,
                  const std::string &timeUnit)
{
    // Collect the union of timestamps, then fill a row per timestamp.
    // leaselint: allow(flat-map-hotpath) -- report rendering, runs once
    std::map<std::int64_t, std::vector<std::string>> rows;
    for (std::size_t i = 0; i < series.size(); ++i) {
        for (const auto &p : series[i]->points()) {
            auto &row = rows[p.t.nanos()];
            row.resize(series.size());
            std::ostringstream v;
            v << std::fixed << std::setprecision(2) << p.value;
            row[i] = v.str();
        }
    }

    std::ostringstream os;
    os << std::left << std::setw(12) << ("time(" + timeUnit + ")");
    for (const auto *s : series)
        os << std::setw(24) << (s->name().empty() ? "series" : s->name());
    os << "\n";
    for (auto &[ns, row] : rows) {
        double t = static_cast<double>(ns) / 1e9;
        if (timeUnit == "min") t /= 60.0;
        row.resize(series.size());
        std::ostringstream ts;
        ts << std::fixed << std::setprecision(1) << t;
        os << std::setw(12) << ts.str();
        for (const auto &cell : row) os << std::setw(24) << cell;
        os << "\n";
    }
    return os.str();
}

} // namespace leaseos::sim
