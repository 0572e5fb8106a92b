#ifndef LEASEOS_SIM_EVENT_QUEUE_H
#define LEASEOS_SIM_EVENT_QUEUE_H

/**
 * @file
 * Priority-ordered event queue for the discrete-event simulator.
 *
 * Events are (time, sequence, callback) tuples ordered by time with FIFO
 * tie-breaking so that same-timestamp events fire in scheduling order,
 * which keeps runs deterministic. Cancellation is supported lazily: a
 * cancelled event's heap entry stays behind as a tombstone and is
 * discarded when it reaches the top.
 *
 * Internals (the hot path of every simulation — see DESIGN.md §7–8):
 * callbacks live in a pooled slot vector recycled through an intrusive
 * free list, so steady-state scheduling performs no allocation — and the
 * callback type is sim::InlineCallback, so capture storage doesn't
 * allocate either. The binary heap entries carry their own (when, seq)
 * sort key next to the slot index, so sift-up/down compares and moves
 * 24-byte entries sequentially in the heap array and never dereferences
 * a slot; callbacks are moved exactly twice in their life (in at
 * schedule(), out at pop()). EventIds carry a per-slot generation stamp,
 * making pending()/cancel() O(1) array lookups with no hashing; a reused
 * slot bumps its generation, so stale ids from fired or cancelled events
 * can never resurrect.
 */

#include <cstdint>
#include <utility>
#include <vector>

#include "obs/trace.h"
#include "sim/inline_callback.h"
#include "sim/time.h"

namespace leaseos::sim {

/**
 * Opaque handle identifying a scheduled event; 0 is "invalid".
 * Layout: low 32 bits = slot index + 1, high 32 bits = slot generation.
 */
using EventId = std::uint64_t;

constexpr EventId kInvalidEventId = 0;

/**
 * Min-heap of pending simulation events with lazy cancellation.
 */
class EventQueue
{
  public:
    using Callback = InlineCallback;

    EventQueue() = default;
    /**
     * Empties the queue before any pending closure is destroyed: a
     * closure may own a PeriodicHandle, whose destructor cancels into
     * this queue, and must then find it empty.
     */
    ~EventQueue();
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /**
     * Schedule a callback to run at absolute time @p when.
     * @return an id that can be passed to cancel().
     */
    EventId schedule(Time when, Callback cb);

    /**
     * Cancel a pending event.
     * @retval true if the event existed and was still pending.
     */
    bool cancel(EventId id);

    /** @return true if @p id is scheduled and not yet fired or cancelled. */
    bool
    pending(EventId id) const
    {
        const Slot *slot = decode(id);
        return slot != nullptr && slot->live;
    }

    /** @return true if there is no live pending event. */
    bool empty() const { return liveCount_ == 0; }

    /** Number of live (non-cancelled) pending events. */
    std::size_t size() const { return liveCount_; }

    /** Timestamp of the earliest live event. Requires !empty(). */
    Time nextTime();

    /**
     * Remove and return the earliest live event.
     * Requires !empty().
     */
    std::pair<Time, Callback> pop();

  private:
    /** Free-list terminator / "no slot" marker. */
    static constexpr std::uint32_t kNoSlot = 0xffffffffu;

    /**
     * One pooled callback. A slot is allocated from schedule() until its
     * heap entry is removed (at pop() or when a tombstone surfaces), then
     * recycled via the free list with its generation bumped. The (when,
     * seq) ordering key lives in the slot's HeapEntry, not here.
     */
    struct Slot {
        std::uint32_t gen = 0;
        bool live = false;            ///< scheduled, not fired/cancelled
        std::uint32_t nextFree = kNoSlot;
#if defined(LEASEOS_TRACING)
        Time when; ///< fire time, kept so cancel trace events carry it
#endif
        Callback cb;
    };

    /**
     * One heap element: the event's sort key plus its slot index. Keys
     * ride in the heap so sift comparisons touch only the (contiguous)
     * heap array — never the slot pool.
     */
    struct HeapEntry {
        Time when;
        std::uint64_t seq;
        std::uint32_t slot;
    };

    /** Strict (when, seq) ordering between two heap entries. */
    static bool
    earlier(const HeapEntry &a, const HeapEntry &b)
    {
        if (a.when != b.when) return a.when < b.when;
        return a.seq < b.seq;
    }

    static EventId
    makeId(std::uint32_t slot, std::uint32_t gen)
    {
        return (static_cast<EventId>(gen) << 32) |
               (static_cast<EventId>(slot) + 1);
    }

    /** Decode an id to its slot, or nullptr if malformed or stale. */
    const Slot *
    decode(EventId id) const
    {
        std::uint32_t low = static_cast<std::uint32_t>(id);
        if (low == 0) return nullptr;
        std::uint32_t index = low - 1;
        if (index >= slots_.size()) return nullptr;
        const Slot &slot = slots_[index];
        if (slot.gen != static_cast<std::uint32_t>(id >> 32))
            return nullptr;
        return &slot;
    }

    void siftUp(std::size_t pos);
    void siftDown(std::size_t pos);

    /** Remove the heap root (replace with last entry, restore order). */
    void popHeapTop();

    /** Recycle a slot: bump generation, drop callback, push free list. */
    void recycleSlot(std::uint32_t index);

    /** Drop tombstones (cancelled entries) from the top of the heap. */
    void skipDead();

    /**
     * Sweep every tombstone out of the heap and re-heapify (Floyd build,
     * O(n)). Triggered from cancel() once tombstones outnumber live
     * entries, which bounds the pool at ~2x the live event count and
     * keeps cancel() amortized O(1). Ordering is unaffected: the heap is
     * rebuilt under the same total (when, seq) order.
     */
    void compact();

    std::vector<Slot> slots_;          ///< pooled callback storage
    std::vector<HeapEntry> heap_;      ///< binary min-heap of keyed entries
    std::uint32_t freeHead_ = kNoSlot; ///< intrusive free-list head
    std::size_t liveCount_ = 0;
    std::uint64_t nextSeq_ = 0;

#if defined(LEASEOS_TRACING)
    /**
     * Cached trace sink: the runtime-off mode is this pointer being null,
     * one predictable branch per queue operation. The queue is the
     * simulator's firehose, so events are decimated 1-in-64.
     */
    static constexpr std::uint32_t kTraceSampleMask = 63;
    obs::TraceBuffer *trace_ = obs::TraceBuffer::current();
#endif
};

} // namespace leaseos::sim

#endif // LEASEOS_SIM_EVENT_QUEUE_H
