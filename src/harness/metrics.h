#ifndef LEASEOS_HARNESS_METRICS_H
#define LEASEOS_HARNESS_METRICS_H

/**
 * @file
 * Periodic metric sampling — the §2.1 profiling tool ("samples a vector of
 * per-app metrics every 60 s, e.g., wakelock time, CPU usage") generalised
 * to arbitrary gauges. Figures 1-4 and 11 are produced with it.
 *
 * The sampler is a thin periodic pump over the obs::MetricRegistry
 * (DESIGN.md §9): every gauge is a registry-interned metric addressed by
 * dense MetricId — no per-name map lookups on the sampling tick — and the
 * recorded time series live in a flat vector in registration order.
 *
 * Two gauge styles:
 *  - addGauge: a registry *bound gauge*; the level is recorded each tick;
 *  - addDeltaGauge: a registry *bound counter*; the increase over each
 *    interval is recorded (how the paper reports "wakelock time per 60 s").
 *
 * Metrics registered elsewhere (e.g. the lease manager's counters in an
 * externally supplied registry) can be pumped too via watch().
 */

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "obs/metric_registry.h"
#include "sim/simulator.h"
#include "sim/time_series.h"

namespace leaseos::harness {

/**
 * Samples registry metrics into time series at a fixed period.
 */
class MetricsSampler
{
  public:
    /** Standalone sampler over a private registry. */
    MetricsSampler(sim::Simulator &sim, sim::Time period)
        : sim_(sim), period_(period),
          owned_(std::make_unique<obs::MetricRegistry>()),
          registry_(owned_.get())
    {
    }

    /** Pump an existing registry (e.g. the run's installed one). */
    MetricsSampler(sim::Simulator &sim, sim::Time period,
                   obs::MetricRegistry &registry)
        : sim_(sim), period_(period), registry_(&registry)
    {
    }

    obs::MetricRegistry &registry() { return *registry_; }

    /** Register + watch a level gauge; records fn() at each tick. */
    obs::MetricId
    addGauge(const std::string &name, std::function<double()> fn)
    {
        return watch(registry_->boundGauge(name, std::move(fn)));
    }

    /**
     * Register + watch a monotonic counter; records its per-interval
     * increase. The baseline is captured here, at registration.
     */
    obs::MetricId
    addDeltaGauge(const std::string &name, std::function<double()> fn)
    {
        return watch(registry_->boundCounter(name, std::move(fn)));
    }

    /**
     * Pump an already-registered metric. Counter kinds (push or bound)
     * sample as deltas from the value at watch() time; gauge kinds (and
     * histograms, via their observation count) sample as levels.
     */
    obs::MetricId
    watch(obs::MetricId id)
    {
        bool delta = registry_->kind(id) == obs::MetricKind::Counter ||
                     registry_->kind(id) == obs::MetricKind::BoundCounter;
        watches_.push_back(Watch{id, delta, registry_->value(id),
                                 sim::TimeSeries(registry_->name(id))});
        return id;
    }

    void
    start()
    {
        tick_ = sim_.schedulePeriodicScoped(period_, [this] { sample(); });
    }

    void stop() { tick_.cancel(); }

    const sim::TimeSeries &
    series(const std::string &name) const
    {
        for (const Watch &w : watches_)
            if (registry_->name(w.id) == name) return w.series;
        throw std::out_of_range("no sampled metric named '" + name + "'");
    }

  private:
    struct Watch {
        obs::MetricId id;
        bool delta;
        double last;
        sim::TimeSeries series;
    };

    void
    sample()
    {
        for (Watch &w : watches_) {
            double v = registry_->value(w.id);
            if (w.delta) {
                w.series.record(sim_.now(), v - w.last);
                w.last = v;
            } else {
                w.series.record(sim_.now(), v);
            }
        }
    }

    sim::Simulator &sim_;
    sim::Time period_;
    sim::PeriodicHandle tick_;
    std::unique_ptr<obs::MetricRegistry> owned_;
    obs::MetricRegistry *registry_;
    std::vector<Watch> watches_;
};

} // namespace leaseos::harness

#endif // LEASEOS_HARNESS_METRICS_H
