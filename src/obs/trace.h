#ifndef LEASEOS_OBS_TRACE_H
#define LEASEOS_OBS_TRACE_H

/**
 * @file
 * TraceBuffer — the event-timeline half of the unified telemetry layer
 * (DESIGN.md §9): a fixed-capacity ring of 32-byte binary trace events
 * answering "what did lease L do, when, and why".
 *
 * Overhead model, per the §8 allocation discipline:
 *  - compile-time off (default): the `LEASEOS_TRACE(...)` macro erases
 *    call sites entirely, exactly like `LEASEOS_ORACLE`;
 *  - runtime off: builds with -DLEASEOS_TRACING=ON branch on a cached
 *    TraceBuffer pointer (thread-local current(), cached by hot
 *    components at construction) — one predictable branch per site;
 *  - runtime on: one 32-byte store into a preallocated ring that
 *    overwrites the oldest event when full. Steady state never
 *    allocates; high-frequency categories are decimated with
 *    emitSampled() power-of-two masks.
 *
 * The ring is exported post-run by obs/trace_export.h as JSON-lines or
 * Chrome trace_event JSON (open in Perfetto / about:tracing).
 *
 * Like MetricRegistry, visibility is per-thread via install() /
 * uninstall() / current() — one Simulator per thread keeps parallel
 * sweeps isolated and deterministic.
 */

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/ids.h"
#include "sim/time.h"

namespace leaseos::obs {

/** Event category; doubles as the Chrome trace "cat" field. */
enum class TraceCategory : std::uint16_t {
    Lease = 0,  ///< lease state transitions + creation
    Proxy,      ///< grant / deny / defer decisions at the API boundary
    Classifier, ///< behavior-classifier verdicts at term end
    Utility,    ///< utility-counter charges
    Queue,      ///< EventQueue schedule / cancel / fire (sampled)
    Power,      ///< per-channel energy commits (sampled)
};

constexpr std::size_t kTraceCategoryCount = 6;

/** Per-event code; names become Chrome trace "name" fields. */
enum class TraceCode : std::uint16_t {
    LeaseCreated = 0,
    LeaseToActive,
    LeaseToInactive,
    LeaseToDeferred,
    LeaseToDead,
    ProxyGrant,
    ProxyDeny,
    ProxyDefer,
    ClassifyNormal,
    ClassifyFrequentAsk,
    ClassifyLongHolding,
    ClassifyLowUtility,
    ClassifyExcessiveUse,
    UtilityCharge,
    QueueSchedule,
    QueueCancel,
    QueueFire,
    PowerSync,
};

const char *traceCategoryName(TraceCategory cat);
const char *traceCodeName(TraceCode code);

/**
 * One fixed-layout binary trace record. 32 bytes so a 64Ki-event ring is
 * 2 MiB and the emit path is a single cache-line-friendly store.
 */
struct TraceEvent {
    std::int64_t timeNs = 0;    ///< sim-time of the event
    std::uint16_t category = 0; ///< TraceCategory
    std::uint16_t code = 0;     ///< TraceCode
    std::int32_t uid = 0;       ///< owning app (kSystemUid for system)
    std::uint64_t leaseId = 0;  ///< lease / event / channel id
    std::uint64_t payload = 0;  ///< code-specific payload
};

static_assert(sizeof(TraceEvent) == 32, "trace events must stay 32 bytes");

/** Round-trip a double through the 64-bit payload field. */
inline std::uint64_t
payloadFromDouble(double d) noexcept
{
    return std::bit_cast<std::uint64_t>(d);
}

inline double
payloadToDouble(std::uint64_t p) noexcept
{
    return std::bit_cast<double>(p);
}

class TraceBuffer
{
  public:
    static constexpr std::size_t kDefaultCapacity = std::size_t{1} << 16;

    /** Preallocate a ring of @p capacity events (rounded up to 2^n). */
    explicit TraceBuffer(std::size_t capacity = kDefaultCapacity);
    ~TraceBuffer();

    TraceBuffer(const TraceBuffer &) = delete;
    TraceBuffer &operator=(const TraceBuffer &) = delete;

    /** Record one event (overwrites the oldest when the ring is full). */
    void
    emit(sim::Time t, TraceCategory cat, TraceCode code, Uid uid,
         std::uint64_t leaseId, std::uint64_t payload = 0) noexcept
    {
        ring_[static_cast<std::size_t>(emitted_) & mask_] =
            TraceEvent{t.nanos(), static_cast<std::uint16_t>(cat),
                       static_cast<std::uint16_t>(code), uid, leaseId,
                       payload};
        ++emitted_;
    }

    /**
     * Record every (mask+1)-th event of @p cat (per-category decimation
     * counter; @p mask must be 2^n - 1). Used for the Queue and Power
     * firehoses.
     */
    void
    emitSampled(std::uint32_t mask, sim::Time t, TraceCategory cat,
                TraceCode code, Uid uid, std::uint64_t leaseId,
                std::uint64_t payload = 0) noexcept
    {
        if ((sampleTick_[static_cast<std::size_t>(cat)]++ & mask) != 0)
            return;
        emit(t, cat, code, uid, leaseId, payload);
    }

    std::size_t capacity() const noexcept { return ring_.size(); }
    /** Events currently retained (≤ capacity). */
    std::size_t
    size() const noexcept
    {
        return emitted_ < ring_.size() ? static_cast<std::size_t>(emitted_)
                                       : ring_.size();
    }
    /** Total events recorded, including overwritten ones. */
    std::uint64_t emitted() const noexcept { return emitted_; }
    /** Events lost to ring overwrite. */
    std::uint64_t
    dropped() const noexcept
    {
        return emitted_ - static_cast<std::uint64_t>(size());
    }

    /** The @p i-th oldest retained event (0 ≤ i < size()). */
    const TraceEvent &
    event(std::size_t i) const noexcept
    {
        std::size_t first =
            emitted_ <= ring_.size()
                ? 0
                : static_cast<std::size_t>(emitted_) & mask_;
        return ring_[(first + i) & mask_];
    }

    void clear() noexcept { emitted_ = 0; }

    // ---- thread-local visibility (mirrors InvariantOracle) --------------

    void install();
    void uninstall();
    static TraceBuffer *current();

  private:
    std::vector<TraceEvent> ring_;
    std::size_t mask_;
    std::uint64_t emitted_ = 0;
    bool installed_ = false;
    TraceBuffer *previous_ = nullptr;
    std::uint32_t sampleTick_[kTraceCategoryCount] = {};
};

} // namespace leaseos::obs

/**
 * Trace-hook macro. Call-site pattern, mirroring LEASEOS_ORACLE:
 *
 *     LEASEOS_TRACE(emit(sim_.now(), obs::TraceCategory::Lease,
 *                        obs::TraceCode::LeaseToActive, uid, id));
 *
 * Compiled in only under -DLEASEOS_TRACING=ON; otherwise the call site
 * erases to nothing, preserving the zero-overhead default build.
 */
#if defined(LEASEOS_TRACING)
#define LEASEOS_TRACE(call)                                                \
    do {                                                                   \
        if (::leaseos::obs::TraceBuffer *leaseos_trace_ =                  \
                ::leaseos::obs::TraceBuffer::current())                    \
            leaseos_trace_->call;                                          \
    } while (0)
#else
#define LEASEOS_TRACE(call) ((void)0)
#endif

#endif // LEASEOS_OBS_TRACE_H
