#include "obs/metric_registry.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <stdexcept>

namespace leaseos::obs {

namespace {

thread_local MetricRegistry *t_current = nullptr;

} // namespace

MetricRegistry::~MetricRegistry()
{
    if (installed_) uninstall();
}

MetricId
MetricRegistry::intern(std::string_view name, MetricKind kind,
                       std::uint32_t cellSpan, std::function<double()> fn)
{
    if (MetricId existing = find(name); existing != kInvalidMetricId) {
        if (slots_[existing].kind != kind)
            throw std::logic_error("metric '" + std::string(name) +
                                   "' re-registered with a different kind");
        return existing;
    }

    MetricId id = static_cast<MetricId>(slots_.size());
    Slot slot;
    slot.kind = kind;
    slot.cell = static_cast<std::uint32_t>(cells_.size());
    for (std::uint32_t i = 0; i < cellSpan; ++i) cells_.emplace_back();
    if (fn) {
        slot.fn = static_cast<std::int32_t>(fns_.size());
        fns_.push_back(std::move(fn));
    }
    slots_.push_back(slot);
    names_.emplace_back(name);

    auto pos = std::lower_bound(byName_.begin(), byName_.end(), name,
                                [&](MetricId a, std::string_view n) {
                                    return names_[a] < n;
                                });
    byName_.insert(pos, id);
    return id;
}

MetricId
MetricRegistry::counter(std::string_view name)
{
    return intern(name, MetricKind::Counter, 1, nullptr);
}

MetricId
MetricRegistry::histogram(std::string_view name)
{
    return intern(name, MetricKind::Histogram,
                  2 + static_cast<std::uint32_t>(kHistBuckets), nullptr);
}

MetricId
MetricRegistry::boundCounter(std::string_view name, std::function<double()> fn)
{
    return intern(name, MetricKind::BoundCounter, 0, std::move(fn));
}

MetricId
MetricRegistry::boundGauge(std::string_view name, std::function<double()> fn)
{
    return intern(name, MetricKind::BoundGauge, 0, std::move(fn));
}

double
MetricRegistry::value(MetricId id) const
{
    const Slot &slot = slots_[id];
    switch (slot.kind) {
    case MetricKind::Counter:
        return cells_[slot.cell].load();
    case MetricKind::Histogram:
        return cells_[slot.cell].load(); // observation count
    case MetricKind::BoundCounter:
    case MetricKind::BoundGauge:
        return fns_[static_cast<std::size_t>(slot.fn)]();
    }
    return 0.0;
}

std::uint64_t
MetricRegistry::histCount(MetricId id) const
{
    assert(slots_[id].kind == MetricKind::Histogram);
    return static_cast<std::uint64_t>(cells_[slots_[id].cell].load());
}

double
MetricRegistry::histSum(MetricId id) const
{
    assert(slots_[id].kind == MetricKind::Histogram);
    return cells_[slots_[id].cell + 1].load();
}

std::uint64_t
MetricRegistry::histBucket(MetricId id, int bucket) const
{
    assert(slots_[id].kind == MetricKind::Histogram);
    assert(bucket >= 0 && bucket < kHistBuckets);
    return static_cast<std::uint64_t>(
        cells_[slots_[id].cell + 2 + static_cast<std::uint32_t>(bucket)]
            .load());
}

double
MetricRegistry::histPercentile(MetricId id, double q) const
{
    assert(slots_[id].kind == MetricKind::Histogram);
    const std::uint64_t total = histCount(id);
    if (total == 0) return 0.0;
    if (q < 0.0) q = 0.0;
    if (q > 1.0) q = 1.0;
    // Rank of the target observation, 1-based; q=0 maps to the first.
    double target = q * static_cast<double>(total);
    if (target < 1.0) target = 1.0;
    std::uint64_t seen = 0;
    for (int b = 0; b < kHistBuckets; ++b) {
        const std::uint64_t n = histBucket(id, b);
        if (n == 0) continue;
        if (static_cast<double>(seen) + static_cast<double>(n) >= target) {
            // Bucket 0 covers [0,1); bucket b >= 1 covers [2^(b-1), 2^b).
            const double lo =
                b == 0 ? 0.0
                       : static_cast<double>(std::uint64_t{1} << (b - 1));
            const double hi =
                b == 0 ? 1.0 : static_cast<double>(std::uint64_t{1} << b);
            const double frac =
                (target - static_cast<double>(seen)) / static_cast<double>(n);
            return lo + (hi - lo) * frac;
        }
        seen += n;
    }
    return 0.0; // unreachable: every observation lands in some bucket
}

int
MetricRegistry::bucketFor(double value) noexcept
{
    if (!(value >= 1.0)) return 0; // negatives and NaN land in bucket 0
    // Clamp before the integer cast: converting a double beyond the
    // target range is undefined, and anything >= 2^30 saturates into the
    // last bucket regardless.
    constexpr double kLast =
        static_cast<double>(std::uint64_t{1} << (kHistBuckets - 2));
    if (value >= kLast) return kHistBuckets - 1;
    std::uint64_t v = static_cast<std::uint64_t>(value);
    int b = std::bit_width(v); // [1,2) -> 1, [2,4) -> 2, ...
    return b < kHistBuckets ? b : kHistBuckets - 1;
}

MetricId
MetricRegistry::find(std::string_view name) const
{
    auto pos = std::lower_bound(byName_.begin(), byName_.end(), name,
                                [&](MetricId a, std::string_view n) {
                                    return names_[a] < n;
                                });
    if (pos != byName_.end() && names_[*pos] == name) return *pos;
    return kInvalidMetricId;
}

std::vector<std::pair<std::string, double>>
MetricRegistry::snapshot() const
{
    std::vector<std::pair<std::string, double>> out;
    out.reserve(slots_.size());
    for (MetricId id = 0; id < slots_.size(); ++id) {
        if (slots_[id].kind == MetricKind::Histogram) {
            out.emplace_back(names_[id] + ".count",
                             static_cast<double>(histCount(id)));
            out.emplace_back(names_[id] + ".sum", histSum(id));
            out.emplace_back(names_[id] + ".p50", histPercentile(id, 0.50));
            out.emplace_back(names_[id] + ".p90", histPercentile(id, 0.90));
            out.emplace_back(names_[id] + ".p99", histPercentile(id, 0.99));
        } else {
            out.emplace_back(names_[id], value(id));
        }
    }
    return out;
}

void
MetricRegistry::install()
{
    assert(!installed_ && "registry installed twice");
    previous_ = t_current;
    t_current = this;
    installed_ = true;
}

void
MetricRegistry::uninstall()
{
    assert(installed_ && t_current == this);
    t_current = previous_;
    previous_ = nullptr;
    installed_ = false;
}

MetricRegistry *
MetricRegistry::current()
{
    return t_current;
}

} // namespace leaseos::obs
