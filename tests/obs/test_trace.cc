/**
 * @file
 * Unit tests for obs::TraceBuffer — ring retention/overwrite ordering,
 * per-category sampling, the runtime enable switch, payload round-trips,
 * and the thread-local install protocol.
 */

#include <gtest/gtest.h>

#include "obs/trace.h"
#include "sim/time.h"

namespace leaseos::obs {
namespace {

using sim::Time;

TraceEvent
nth(const TraceBuffer &buf, std::size_t i)
{
    return buf.event(i);
}

TEST(TraceBufferTest, CapacityRoundsUpToPowerOfTwo)
{
    EXPECT_EQ(TraceBuffer(1).capacity(), 1u);
    EXPECT_EQ(TraceBuffer(3).capacity(), 4u);
    EXPECT_EQ(TraceBuffer(4).capacity(), 4u);
    EXPECT_EQ(TraceBuffer(1000).capacity(), 1024u);
    EXPECT_EQ(TraceBuffer(0).capacity(), 1u);
}

TEST(TraceBufferTest, RetainsEventsInEmitOrder)
{
    TraceBuffer buf(8);
    for (int i = 0; i < 5; ++i)
        buf.emit(Time::fromSeconds(i), TraceCategory::Lease,
                 TraceCode::LeaseCreated, 10000 + i,
                 static_cast<std::uint64_t>(i));
    EXPECT_EQ(buf.size(), 5u);
    EXPECT_EQ(buf.emitted(), 5u);
    EXPECT_EQ(buf.dropped(), 0u);
    for (std::size_t i = 0; i < 5; ++i) {
        EXPECT_EQ(nth(buf, i).leaseId, i);
        EXPECT_EQ(nth(buf, i).uid, static_cast<std::int32_t>(10000 + i));
    }
}

TEST(TraceBufferTest, OverwritesOldestWhenFull)
{
    TraceBuffer buf(4);
    for (int i = 0; i < 10; ++i)
        buf.emit(Time::fromSeconds(i), TraceCategory::Queue,
                 TraceCode::QueueFire, kSystemUid,
                 static_cast<std::uint64_t>(i));
    EXPECT_EQ(buf.capacity(), 4u);
    EXPECT_EQ(buf.size(), 4u);
    EXPECT_EQ(buf.emitted(), 10u);
    EXPECT_EQ(buf.dropped(), 6u);
    // Oldest-first view = events 6, 7, 8, 9.
    for (std::size_t i = 0; i < 4; ++i)
        EXPECT_EQ(nth(buf, i).leaseId, 6 + i);
}

TEST(TraceBufferTest, SamplingDecimatesPerCategory)
{
    TraceBuffer buf(256);
    // Mask 3 → every 4th event of that category.
    for (int i = 0; i < 16; ++i)
        buf.emitSampled(3, Time::fromSeconds(i), TraceCategory::Queue,
                        TraceCode::QueueSchedule, kSystemUid,
                        static_cast<std::uint64_t>(i));
    EXPECT_EQ(buf.emitted(), 4u);
    EXPECT_EQ(nth(buf, 0).leaseId, 0u);
    EXPECT_EQ(nth(buf, 1).leaseId, 4u);

    // Category counters are independent: Power still fires immediately.
    buf.emitSampled(3, Time::zero(), TraceCategory::Power,
                    TraceCode::PowerSync, kSystemUid, 99);
    EXPECT_EQ(buf.emitted(), 5u);
    EXPECT_EQ(nth(buf, 4).leaseId, 99u);
}

TEST(TraceBufferTest, PayloadDoubleRoundTrips)
{
    for (double d : {0.0, 1.5, -273.15, 1e300, 3.141592653589793}) {
        EXPECT_EQ(payloadToDouble(payloadFromDouble(d)), d);
    }
    TraceBuffer buf(4);
    buf.emit(Time::zero(), TraceCategory::Utility,
             TraceCode::UtilityCharge, kSystemUid, 7,
             payloadFromDouble(0.625));
    EXPECT_DOUBLE_EQ(payloadToDouble(nth(buf, 0).payload), 0.625);
}

TEST(TraceBufferTest, ClearResetsRetention)
{
    TraceBuffer buf(4);
    buf.emit(Time::zero(), TraceCategory::Lease, TraceCode::LeaseCreated,
             kSystemUid, 1);
    buf.clear();
    EXPECT_EQ(buf.size(), 0u);
    EXPECT_EQ(buf.emitted(), 0u);
}

TEST(TraceBufferTest, NamesCoverEveryCategoryAndCode)
{
    EXPECT_STREQ(traceCategoryName(TraceCategory::Lease), "lease");
    EXPECT_STREQ(traceCategoryName(TraceCategory::Power), "power");
    EXPECT_STREQ(traceCodeName(TraceCode::LeaseCreated), "lease_created");
    EXPECT_STREQ(traceCodeName(TraceCode::PowerSync), "power_sync");
    // Every enumerator renders to a non-placeholder name.
    for (std::uint16_t c = 0; c < kTraceCategoryCount; ++c)
        EXPECT_STRNE(traceCategoryName(static_cast<TraceCategory>(c)), "?");
    for (std::uint16_t c = 0;
         c <= static_cast<std::uint16_t>(TraceCode::PowerSync); ++c)
        EXPECT_STRNE(traceCodeName(static_cast<TraceCode>(c)), "?");
}

TEST(TraceBufferTest, InstallNestsAndDestructorUninstalls)
{
    EXPECT_EQ(TraceBuffer::current(), nullptr);
    TraceBuffer outer(4);
    outer.install();
    EXPECT_EQ(TraceBuffer::current(), &outer);
    {
        TraceBuffer inner(4);
        inner.install();
        EXPECT_EQ(TraceBuffer::current(), &inner);
        // inner's destructor must restore outer.
    }
    EXPECT_EQ(TraceBuffer::current(), &outer);
    outer.uninstall();
    EXPECT_EQ(TraceBuffer::current(), nullptr);
}

} // namespace
} // namespace leaseos::obs
