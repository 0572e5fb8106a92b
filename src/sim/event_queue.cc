#include "sim/event_queue.h"

#include <cassert>
#include <utility>

namespace leaseos::sim {

EventQueue::~EventQueue()
{
    std::vector<Slot> pending = std::move(slots_);
    slots_.clear();
    heap_.clear();
    freeHead_ = kNoSlot;
    liveCount_ = 0;
    // `pending` dies here, and with it every closure.
}

EventId
EventQueue::schedule(Time when, Callback cb)
{
    std::uint32_t index;
    if (freeHead_ != kNoSlot) {
        index = freeHead_;
        freeHead_ = slots_[index].nextFree;
    } else {
        assert(slots_.size() < kNoSlot && "event-slot space exhausted");
        index = static_cast<std::uint32_t>(slots_.size());
        slots_.emplace_back();
    }
    Slot &slot = slots_[index];
    std::uint64_t seq = nextSeq_++;
    slot.live = true;
    slot.cb = std::move(cb);

    heap_.push_back(HeapEntry{when, seq, index});
    siftUp(heap_.size() - 1);
    ++liveCount_;
#if defined(LEASEOS_TRACING)
    slot.when = when;
    if (trace_ != nullptr)
        trace_->emitSampled(kTraceSampleMask, when,
                            obs::TraceCategory::Queue,
                            obs::TraceCode::QueueSchedule, kSystemUid,
                            makeId(index, slot.gen), seq);
#endif
    return makeId(index, slot.gen);
}

bool
EventQueue::cancel(EventId id)
{
    const Slot *found = decode(id);
    if (found == nullptr || !found->live) return false;
    // Lazy cancellation: mark the slot dead and release its callback now
    // (closures can pin resources); the heap entry becomes a tombstone
    // that skipDead() discards — and recycles — when it surfaces.
    Slot &slot = const_cast<Slot &>(*found);
    slot.live = false;
    slot.cb = nullptr;
    --liveCount_;
#if defined(LEASEOS_TRACING)
    if (trace_ != nullptr)
        trace_->emitSampled(kTraceSampleMask, slot.when,
                            obs::TraceCategory::Queue,
                            obs::TraceCode::QueueCancel, kSystemUid, id);
#endif
    // Cancel-heavy workloads (timer resets, backoffs) would otherwise
    // grow the heap without bound: tombstones only surface through
    // skipDead(). Compact once they dominate.
    if (heap_.size() > 64 && heap_.size() - liveCount_ > liveCount_)
        compact();
    return true;
}

void
EventQueue::compact()
{
    std::size_t kept = 0;
    for (const HeapEntry &entry : heap_) {
        if (slots_[entry.slot].live)
            heap_[kept++] = entry;
        else
            recycleSlot(entry.slot);
    }
    heap_.resize(kept);
    for (std::size_t i = kept / 2; i-- > 0;) siftDown(i);
}

void
EventQueue::recycleSlot(std::uint32_t index)
{
    Slot &slot = slots_[index];
    slot.live = false;
    slot.cb = nullptr;
    // Invalidate every id already handed out for this slot.
    ++slot.gen;
    slot.nextFree = freeHead_;
    freeHead_ = index;
}

void
EventQueue::siftUp(std::size_t pos)
{
    HeapEntry moving = heap_[pos];
    while (pos > 0) {
        std::size_t parent = (pos - 1) / 2;
        if (!earlier(moving, heap_[parent])) break;
        heap_[pos] = heap_[parent];
        pos = parent;
    }
    heap_[pos] = moving;
}

void
EventQueue::siftDown(std::size_t pos)
{
    HeapEntry moving = heap_[pos];
    const std::size_t n = heap_.size();
    for (;;) {
        std::size_t child = 2 * pos + 1;
        if (child >= n) break;
        if (child + 1 < n && earlier(heap_[child + 1], heap_[child]))
            ++child;
        if (!earlier(heap_[child], moving)) break;
        heap_[pos] = heap_[child];
        pos = child;
    }
    heap_[pos] = moving;
}

void
EventQueue::popHeapTop()
{
    heap_[0] = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) siftDown(0);
}

void
EventQueue::skipDead()
{
    while (!heap_.empty() && !slots_[heap_[0].slot].live) {
        recycleSlot(heap_[0].slot);
        popHeapTop();
    }
}

Time
EventQueue::nextTime()
{
    skipDead();
    assert(!heap_.empty() && "nextTime() on empty queue");
    return heap_[0].when;
}

std::pair<Time, EventQueue::Callback>
EventQueue::pop()
{
    skipDead();
    assert(!heap_.empty() && "pop() on empty queue");
    const HeapEntry &top = heap_[0];
    std::uint32_t index = top.slot;
    auto result = std::make_pair(top.when, std::move(slots_[index].cb));
    --liveCount_;
#if defined(LEASEOS_TRACING)
    if (trace_ != nullptr)
        trace_->emitSampled(kTraceSampleMask, result.first,
                            obs::TraceCategory::Queue,
                            obs::TraceCode::QueueFire, kSystemUid,
                            makeId(index, slots_[index].gen), top.seq);
#endif
    recycleSlot(index);
    popHeapTop();
    return result;
}

} // namespace leaseos::sim
