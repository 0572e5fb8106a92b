/**
 * @file
 * Allocation-count regression tests for the telemetry hot path
 * (DESIGN.md §9). Replaces global operator new/delete with counting
 * versions and asserts that steady-state trace emission and metric
 * updates perform ZERO heap allocations — the ring and the cell table
 * are sized at construction, never on the recording path. This is the
 * unit-scope twin of the perf-bench gate that keeps bench_eventqueue at
 * 0 allocs/op with tracing compiled out.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "common/ids.h"
#include "obs/metric_registry.h"
#include "obs/trace.h"
#include "sim/time.h"

// GCC inlines the replacement operator new/delete below into container
// code and then reports the malloc/free pairing as mismatched; the
// pairing is correct for global replacement allocation functions.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

namespace {

std::atomic<std::uint64_t> g_allocs{0};

std::uint64_t
allocCount()
{
    return g_allocs.load(std::memory_order_relaxed);
}

} // namespace

void *
operator new(std::size_t size)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (size == 0) size = 1;
    if (void *p = std::malloc(size)) return p;
    throw std::bad_alloc();
}

void *
operator new(std::size_t size, std::align_val_t align)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (size == 0) size = 1;
    std::size_t a = static_cast<std::size_t>(align);
    if (void *p = std::aligned_alloc(a, (size + a - 1) / a * a)) return p;
    throw std::bad_alloc();
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

namespace leaseos::obs {
namespace {

using sim::Time;

TEST(ObsAllocTest, TraceEmitIsAllocationFree)
{
    TraceBuffer buf(1u << 10);
    Time when = Time::zero();
    auto tick = [&] { when = when + Time::fromSeconds(0.25); };
    // Warm: wrap the ring at least once so every slot has been written.
    for (int i = 0; i < 2048; ++i) {
        tick();
        buf.emit(when, TraceCategory::Lease, TraceCode::LeaseToActive,
                 kFirstAppUid, static_cast<std::uint64_t>(i));
    }
    std::uint64_t before = allocCount();
    for (int i = 0; i < 10'000; ++i) {
        tick();
        buf.emit(when, TraceCategory::Lease, TraceCode::LeaseToActive,
                 kFirstAppUid, static_cast<std::uint64_t>(i));
        buf.emitSampled(63, when, TraceCategory::Queue,
                        TraceCode::QueueFire, kSystemUid,
                        static_cast<std::uint64_t>(i));
    }
    std::uint64_t after = allocCount();
    EXPECT_EQ(after, before)
        << "steady trace emission allocated " << (after - before)
        << " times in 10k iterations";
}

TEST(ObsAllocTest, MetricUpdatesAreAllocationFree)
{
    // Registration may allocate (name interning, slot growth); updates
    // must not — they are a relaxed atomic op on a pre-sized cell.
    MetricRegistry reg;
    MetricId c = reg.counter("lease.transitions.active");
    MetricId g = reg.gauge("power.battery.mw");
    MetricId h = reg.histogram("lease.term_seconds");
    reg.add(c);
    reg.set(g, 1.0);
    reg.observe(h, 2.0);
    std::uint64_t before = allocCount();
    for (int i = 0; i < 10'000; ++i) {
        reg.add(c);
        reg.set(g, static_cast<double>(i));
        reg.observe(h, static_cast<double>(i % 512));
    }
    std::uint64_t after = allocCount();
    EXPECT_EQ(after, before)
        << "steady metric updates allocated " << (after - before)
        << " times in 10k iterations";
}

TEST(ObsAllocTest, UninstalledHookPathIsAllocationFree)
{
    // With no thread-local buffer installed, the instrumented-code path
    // is current() == nullptr followed by nothing; it must never touch
    // the heap.
    ASSERT_EQ(TraceBuffer::current(), nullptr);
    ASSERT_EQ(MetricRegistry::current(), nullptr);
    std::uint64_t before = allocCount();
    for (int i = 0; i < 10'000; ++i) {
        if (TraceBuffer *t = TraceBuffer::current())
            t->emit(Time::zero(), TraceCategory::Lease,
                    TraceCode::LeaseCreated, kSystemUid, 1);
        if (MetricRegistry *m = MetricRegistry::current()) m->add(0);
    }
    EXPECT_EQ(allocCount(), before);
}

} // namespace
} // namespace leaseos::obs
