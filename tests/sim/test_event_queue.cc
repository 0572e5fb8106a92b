/**
 * @file
 * Unit tests for sim::EventQueue ordering, cancellation, and determinism.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

#include "sim/event_queue.h"

namespace leaseos::sim {
namespace {

TEST(EventQueueTest, EmptyInitially)
{
    EventQueue q;
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.size(), 0u);
}

TEST(EventQueueTest, PopsInTimeOrder)
{
    EventQueue q;
    std::vector<int> fired;
    q.schedule(3_s, [&] { fired.push_back(3); });
    q.schedule(1_s, [&] { fired.push_back(1); });
    q.schedule(2_s, [&] { fired.push_back(2); });
    while (!q.empty()) q.pop().second();
    EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, FifoTieBreakAtSameTime)
{
    EventQueue q;
    std::vector<int> fired;
    for (int i = 0; i < 10; ++i)
        q.schedule(5_s, [&fired, i] { fired.push_back(i); });
    while (!q.empty()) q.pop().second();
    for (int i = 0; i < 10; ++i) EXPECT_EQ(fired[i], i);
}

TEST(EventQueueTest, NextTimeReportsEarliestLive)
{
    EventQueue q;
    EventId early = q.schedule(1_s, [] {});
    q.schedule(2_s, [] {});
    EXPECT_EQ(q.nextTime(), 1_s);
    q.cancel(early);
    EXPECT_EQ(q.nextTime(), 2_s);
}

TEST(EventQueueTest, CancelPendingReturnsTrue)
{
    EventQueue q;
    EventId id = q.schedule(1_s, [] {});
    EXPECT_TRUE(q.pending(id));
    EXPECT_TRUE(q.cancel(id));
    EXPECT_FALSE(q.pending(id));
    EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, CancelTwiceReturnsFalse)
{
    EventQueue q;
    EventId id = q.schedule(1_s, [] {});
    EXPECT_TRUE(q.cancel(id));
    EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueueTest, CancelFiredEventReturnsFalse)
{
    EventQueue q;
    EventId id = q.schedule(1_s, [] {});
    q.schedule(2_s, [] {});
    q.pop().second();
    EXPECT_FALSE(q.cancel(id));
    EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueueTest, CancelInvalidIdReturnsFalse)
{
    EventQueue q;
    EXPECT_FALSE(q.cancel(kInvalidEventId));
    EXPECT_FALSE(q.cancel(9999));
}

TEST(EventQueueTest, CancelledEventNeverFires)
{
    EventQueue q;
    bool fired = false;
    EventId id = q.schedule(1_s, [&] { fired = true; });
    q.schedule(2_s, [] {});
    q.cancel(id);
    while (!q.empty()) q.pop().second();
    EXPECT_FALSE(fired);
}

TEST(EventQueueTest, SizeCountsOnlyLiveEvents)
{
    EventQueue q;
    EventId a = q.schedule(1_s, [] {});
    q.schedule(2_s, [] {});
    q.schedule(3_s, [] {});
    EXPECT_EQ(q.size(), 3u);
    q.cancel(a);
    EXPECT_EQ(q.size(), 2u);
}

TEST(EventQueueTest, ManyEventsStressOrdering)
{
    EventQueue q;
    // Interleave schedule and cancel; verify monotone pop order.
    std::vector<EventId> ids;
    for (int i = 0; i < 1000; ++i)
        ids.push_back(
            q.schedule(Time::fromMillis(997 * i % 1000), [] {}));
    for (int i = 0; i < 1000; i += 3) q.cancel(ids[i]);
    Time last = Time::zero();
    while (!q.empty()) {
        Time t = q.nextTime();
        EXPECT_GE(t, last);
        last = t;
        q.pop();
    }
}

TEST(EventQueueTest, FifoTieBreakSurvivesCancellationsInBetween)
{
    EventQueue q;
    std::vector<int> fired;
    std::vector<EventId> ids;
    for (int i = 0; i < 20; ++i)
        ids.push_back(q.schedule(5_s, [&fired, i] { fired.push_back(i); }));
    for (int i = 1; i < 20; i += 2) q.cancel(ids[i]);
    while (!q.empty()) q.pop().second();
    std::vector<int> expected;
    for (int i = 0; i < 20; i += 2) expected.push_back(i);
    EXPECT_EQ(fired, expected);
}

TEST(EventQueueTest, CancelThenPopSkipsStraightToNextLive)
{
    EventQueue q;
    std::vector<int> fired;
    EventId first = q.schedule(1_s, [&] { fired.push_back(1); });
    q.schedule(2_s, [&] { fired.push_back(2); });
    q.cancel(first);
    auto [when, cb] = q.pop();
    EXPECT_EQ(when, 2_s);
    cb();
    EXPECT_EQ(fired, (std::vector<int>{2}));
    EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, ReusedSlotNeverResurrectsOldId)
{
    // Fire/cancel events so their pool slots recycle, then verify every
    // stale id stays dead: pending() false, cancel() false, and the new
    // occupant of the slot is unaffected.
    EventQueue q;
    EventId fired = q.schedule(1_s, [] {});
    EventId cancelled = q.schedule(2_s, [] {});
    q.cancel(cancelled);
    q.pop().second(); // fires `fired`, recycles its slot
    EXPECT_FALSE(q.pending(fired));
    EXPECT_FALSE(q.pending(cancelled));

    // Recycle until both old slots are reoccupied.
    std::vector<EventId> fresh;
    for (int i = 0; i < 4; ++i) fresh.push_back(q.schedule(5_s, [] {}));
    EXPECT_FALSE(q.pending(fired));
    EXPECT_FALSE(q.cancel(fired));
    EXPECT_FALSE(q.pending(cancelled));
    EXPECT_FALSE(q.cancel(cancelled));
    for (EventId id : fresh) EXPECT_TRUE(q.pending(id));
    EXPECT_EQ(q.size(), fresh.size());
}

TEST(EventQueueTest, SizeAndPendingConsistentUnderMixedChurn)
{
    EventQueue q;
    std::vector<EventId> all;
    std::size_t cursor = 0; // next id to cancel
    for (int round = 0; round < 50; ++round) {
        for (int i = 0; i < 10; ++i) {
            all.push_back(
                q.schedule(Time::fromMillis(131 * (round * 10 + i) % 700),
                           [] {}));
        }
        // Cancel three (possibly already popped), pop two, every round.
        for (int i = 0; i < 3; ++i) q.cancel(all[cursor++]);
        for (int i = 0; i < 2 && !q.empty(); ++i) {
            q.pop();
        }
    }
    // size() must agree exactly with pending() over every id issued.
    std::size_t stillPending = 0;
    for (EventId id : all)
        if (q.pending(id)) ++stillPending;
    EXPECT_EQ(stillPending, q.size());
    EXPECT_GT(q.size(), 0u);
    Time last = Time::zero();
    while (!q.empty()) {
        Time t = q.nextTime();
        EXPECT_GE(t, last);
        last = t;
        q.pop();
    }
}

TEST(EventQueueTest, CancelHeavyChurnStaysOrderedThroughCompaction)
{
    // Cancel-dominated workload (timer resets): tombstones trigger the
    // internal heap compaction many times; ordering and ids must hold.
    EventQueue q;
    std::vector<std::pair<Time, EventId>> live;
    for (int i = 0; i < 200; ++i) {
        Time t = Time::fromMillis(271 * i % 9973);
        live.emplace_back(t, q.schedule(t, [] {}));
    }
    for (int i = 0; i < 5000; ++i) {
        q.cancel(live.front().second);
        live.erase(live.begin());
        Time t = Time::fromMillis((1009 * i + 17) % 9973);
        live.emplace_back(t, q.schedule(t, [] {}));
        EXPECT_EQ(q.size(), 200u);
    }
    for (const auto &[when, id] : live) EXPECT_TRUE(q.pending(id));
    Time last = Time::zero();
    std::size_t popped = 0;
    while (!q.empty()) {
        Time t = q.nextTime();
        EXPECT_GE(t, last);
        last = t;
        q.pop();
        ++popped;
    }
    EXPECT_EQ(popped, 200u);
}

struct CopyCounter {
    static inline int copies = 0;
    CopyCounter() = default;
    CopyCounter(const CopyCounter &) { ++copies; }
    CopyCounter(CopyCounter &&) noexcept {}
    CopyCounter &operator=(const CopyCounter &) = default;
    CopyCounter &operator=(CopyCounter &&) noexcept { return *this; }
};

TEST(EventQueueTest, CallbacksNeverCopiedDuringSift)
{
    // The heap stores slot indices, so heap maintenance must never copy
    // a callback. The only copy allowed is the one std::function makes
    // when the lambda is first wrapped at schedule() time.
    EventQueue q;
    CopyCounter::copies = 0;
    for (int i = 0; i < 64; ++i) {
        CopyCounter token;
        q.schedule(Time::fromMillis(37 * i % 50),
                   [token] { (void)token; });
    }
    int afterSchedule = CopyCounter::copies;
    while (!q.empty()) q.pop().second(); // sift-down churn on every pop
    EXPECT_EQ(CopyCounter::copies, afterSchedule)
        << "heap maintenance copied a callback";
}

} // namespace
} // namespace leaseos::sim
