#include "sim/stats.h"

#include <algorithm>
#include <cmath>

#include "sim/checkpoint.h"

namespace leaseos::sim {

void
Accumulator::record(double v)
{
    if (n_ == 0) {
        min_ = v;
        max_ = v;
    } else {
        min_ = std::min(min_, v);
        max_ = std::max(max_, v);
    }
    ++n_;
    sum_ += v;
    double d = v - mean_;
    mean_ += d / static_cast<double>(n_);
    m2_ += d * (v - mean_);
}

double
Accumulator::variance() const
{
    if (n_ < 2) return 0.0;
    return m2_ / static_cast<double>(n_ - 1);
}

double
Accumulator::stddev() const
{
    return std::sqrt(variance());
}

void
Accumulator::saveState(CheckpointWriter &w) const
{
    w.u64(n_);
    w.f64(mean_);
    w.f64(m2_);
    w.f64(sum_);
    w.f64(min_);
    w.f64(max_);
}

} // namespace leaseos::sim
