#ifndef LEASEOS_OBS_METRIC_REGISTRY_H
#define LEASEOS_OBS_METRIC_REGISTRY_H

/**
 * @file
 * MetricRegistry — the counters/gauges/histograms half of the unified
 * telemetry layer (DESIGN.md §9).
 *
 * Names are interned once at registration (cold path: a sorted index,
 * binary-searched); every hot operation — add / observe — is a
 * single relaxed atomic on a dense slot addressed by `MetricId`. No node
 * maps, no hashing, no allocation after registration, so instrumented
 * code keeps the §8 zero-steady-state-allocation discipline.
 *
 * Two metric flavours exist:
 *  - *push* metrics (counters and histograms): instrumented code calls
 *    add()/observe();
 *  - *bound* metrics (counters and gauges): a callback registered once is
 *    pulled at read time (snapshot() / value()). These are what
 *    MetricsSampler's gauges and delta-gauges compile down to. Every gauge
 *    is bound: a level is read from the state that holds it.
 *
 * Threading: registration is NOT thread-safe (do it before workers
 * start); add/observe are thread-safe relaxed atomics so concurrent
 * writers never race (registry concurrent-writer test runs under TSan).
 *
 * A registry is made visible to instrumented components through the same
 * thread-local install()/uninstall()/current() protocol the checked-mode
 * InvariantOracle uses: the harness installs one registry per run, and
 * components cache `MetricRegistry::current()` at construction. One
 * Simulator per thread (DESIGN.md) keeps parallel sweeps isolated.
 */

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/inline_vec.h"

namespace leaseos::obs {

/** Dense slot index returned by registration; stable for the registry's
 *  lifetime. */
using MetricId = std::uint32_t;

constexpr MetricId kInvalidMetricId = 0xffffffffu;

enum class MetricKind : std::uint8_t {
    Counter,      ///< monotonically increasing sum (add)
    Histogram,    ///< count/sum + log2 buckets (observe)
    BoundCounter, ///< pulled from a callback; sampled as a delta
    BoundGauge,   ///< pulled from a callback; sampled as a level
};

class MetricRegistry
{
  public:
    MetricRegistry() = default;
    ~MetricRegistry();

    MetricRegistry(const MetricRegistry &) = delete;
    MetricRegistry &operator=(const MetricRegistry &) = delete;

    // ---- registration (cold; single-threaded) ---------------------------

    /** Register (or look up) a push counter named @p name. */
    MetricId counter(std::string_view name);
    /** Register (or look up) a histogram named @p name. */
    MetricId histogram(std::string_view name);
    /** Register a pull counter backed by @p fn (e.g. a delta-gauge). */
    MetricId boundCounter(std::string_view name, std::function<double()> fn);
    /** Register a pull gauge backed by @p fn. */
    MetricId boundGauge(std::string_view name, std::function<double()> fn);

    // ---- hot operations (thread-safe, allocation-free) ------------------

    /** Add @p delta to a push counter (default: count one event). */
    void
    add(MetricId id, double delta = 1.0) noexcept
    {
        cells_[slots_[id].cell].fetchAdd(delta);
    }

    /** Record one observation into a histogram. */
    void
    observe(MetricId id, double value) noexcept
    {
        std::uint32_t base = slots_[id].cell;
        cells_[base + 0].fetchAdd(1.0);     // count
        cells_[base + 1].fetchAdd(value);   // sum
        cells_[base + 2 + static_cast<std::uint32_t>(bucketFor(value))]
            .fetchAdd(1.0);
    }

    // ---- reads ----------------------------------------------------------

    /**
     * Current value: counter cell, bound callback result, or — for
     * histograms — the observation count.
     */
    double value(MetricId id) const;

    std::uint64_t histCount(MetricId id) const;
    double histSum(MetricId id) const;
    std::uint64_t histBucket(MetricId id, int bucket) const;

    /**
     * Quantile estimate (q in [0,1]) from the log2 buckets, linearly
     * interpolated within the bucket holding the target rank. Exact when
     * all observations share one bucket edge, otherwise an estimate
     * bounded by the bucket's [2^(b-1), 2^b) range. 0 when empty.
     */
    double histPercentile(MetricId id, double q) const;

    /** log2 bucket index for @p value: 0 for v < 1, else 1+floor(log2). */
    static int bucketFor(double value) noexcept;

    static constexpr int kHistBuckets = 32;

    /** Id registered under @p name, or kInvalidMetricId. */
    MetricId find(std::string_view name) const;
    const std::string &name(MetricId id) const { return names_[id]; }
    MetricKind kind(MetricId id) const { return slots_[id].kind; }
    std::size_t size() const { return slots_.size(); }

    /**
     * Deterministic (name, value) rollup in registration order. Scalar
     * metrics contribute one entry; histograms contribute
     * "<name>.count", "<name>.sum", and bucket-interpolated
     * "<name>.p50" / "<name>.p90" / "<name>.p99" percentiles.
     */
    std::vector<std::pair<std::string, double>> snapshot() const;

    // ---- thread-local visibility (mirrors InvariantOracle) --------------

    /** Make this the registry instrumented code on this thread sees. */
    void install();
    /** Restore the previously installed registry (if any). */
    void uninstall();
    /** Registry installed on this thread, or nullptr. */
    static MetricRegistry *current();

  private:
    /**
     * One atomic double. InlineVec requires nothrow-move-constructible
     * elements, and slot growth only happens at (single-threaded)
     * registration time, so a relaxed copy-the-value move is safe.
     */
    struct Cell {
        std::atomic<double> v{0.0};

        Cell() = default;
        Cell(Cell &&o) noexcept
            : v(o.v.load(std::memory_order_relaxed))
        {
        }
        Cell &
        operator=(Cell &&o) noexcept
        {
            v.store(o.v.load(std::memory_order_relaxed),
                    std::memory_order_relaxed);
            return *this;
        }

        void
        fetchAdd(double d) noexcept
        {
            v.fetch_add(d, std::memory_order_relaxed);
        }
        double load() const noexcept
        {
            return v.load(std::memory_order_relaxed);
        }
    };

    struct Slot {
        MetricKind kind = MetricKind::Counter;
        std::uint32_t cell = 0;  ///< base index into cells_
        std::int32_t fn = -1;    ///< index into fns_ for bound metrics
    };

    MetricId intern(std::string_view name, MetricKind kind,
                    std::uint32_t cellSpan, std::function<double()> fn);

    common::InlineVec<Slot, 48> slots_;
    common::InlineVec<Cell, 128> cells_;
    std::vector<std::string> names_;        ///< by MetricId
    std::vector<MetricId> byName_;          ///< ids sorted by name
    std::vector<std::function<double()>> fns_;

    bool installed_ = false;
    MetricRegistry *previous_ = nullptr;
};

} // namespace leaseos::obs

#endif // LEASEOS_OBS_METRIC_REGISTRY_H
