/**
 * @file
 * Allocation-count regression tests for the hot path (DESIGN.md §8).
 *
 * This binary replaces the global operator new/delete with counting
 * versions, then asserts that steady-state event-queue churn, power
 * re-attribution, resource-service acquire/release cycles and sensor
 * suspend/restore cycles perform ZERO heap allocations. The same
 * invariant is enforced at scale by the perf-bench CI gate over
 * bench_eventqueue's allocs_per_op column; this test catches regressions
 * at unit scope with a precise callstack when it fires.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "common/ids.h"
#include "os/system_server.h"
#include "power/bluetooth_model.h"
#include "power/energy_accountant.h"
#include "sim/event_queue.h"
#include "sim/simulator.h"
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

namespace leaseos::sim {
namespace {

TEST(AllocRegressionTest, SteadyChurnIsAllocationFree)
{
    EventQueue q;
    const int window = 256;
    Time when = Time::zero();
    auto tick = [&] { when = when + Time::fromSeconds(1.0); };
    for (int i = 0; i < window; ++i) {
        tick();
        q.schedule(when, [] {});
    }
    // Warm-up churn: the slot pool and heap reach their high-water mark.
    for (int i = 0; i < 2 * window; ++i) {
        q.pop().second();
        tick();
        q.schedule(when, [] {});
    }
    std::uint64_t before = allocCount();
    for (int i = 0; i < 10'000; ++i) {
        q.pop().second();
        tick();
        q.schedule(when, [] {});
    }
    std::uint64_t after = allocCount();
    EXPECT_EQ(after, before)
        << "steady schedule/pop churn allocated " << (after - before)
        << " times in 10k iterations";
}

TEST(AllocRegressionTest, CancelChurnIsAllocationFree)
{
    EventQueue q;
    const int window = 128;
    std::vector<EventId> live(window);
    Time when = Time::zero();
    auto tick = [&] { when = when + Time::fromSeconds(1.0); };
    for (int i = 0; i < window; ++i) {
        tick();
        live[static_cast<std::size_t>(i)] = q.schedule(when, [] {});
    }
    std::size_t head = 0;
    auto churn = [&](int ops) {
        for (int i = 0; i < ops; ++i) {
            q.cancel(live[head]);
            tick();
            live[head] = q.schedule(when, [] {});
            head = (head + 1) % window;
        }
    };
    churn(5'000); // warm: tombstone high-water mark, compaction cadence
    std::uint64_t before = allocCount();
    churn(10'000);
    std::uint64_t after = allocCount();
    EXPECT_EQ(after, before)
        << "steady cancel/schedule churn allocated " << (after - before)
        << " times in 10k iterations";
}

TEST(AllocRegressionTest, InlineCaptureScheduleIsAllocationFree)
{
    EventQueue q;
    // The capture AppProcess::post relies on: shared_ptr + std::function
    // fits the 48-byte inline buffer, so no allocation per schedule —
    // the shared state and function are created once, outside the loop.
    auto state = std::make_shared<int>(0);
    Time when = Time::zero();
    // One cold cycle: the first schedule grows the slot pool and heap.
    q.schedule(when, [st = state] { ++*st; });
    q.pop().second();
    std::uint64_t before = allocCount();
    for (int i = 0; i < 1'000; ++i) {
        when = when + Time::fromSeconds(1.0);
        q.schedule(when, [st = state] { ++*st; });
        q.pop().second();
    }
    std::uint64_t after = allocCount();
    EXPECT_EQ(after, before);
    EXPECT_EQ(*state, 1'001);
}

} // namespace
} // namespace leaseos::sim

namespace leaseos::power {
namespace {

TEST(AllocRegressionTest, PowerReattributionIsAllocationFree)
{
    sim::Simulator sim;
    EnergyAccountant acc(sim);
    ChannelId ch = acc.makeChannel("cpu_busy");
    std::vector<Uid> owners = {kFirstAppUid, kFirstAppUid + 1};
    // First set interns the uids and sizes the share array.
    acc.setPower(ch, 100.0, owners);
    std::uint64_t before = allocCount();
    for (int i = 0; i < 10'000; ++i) {
        sim.runFor(sim::Time::fromMillis(1));
        acc.setPower(ch, 100.0 + static_cast<double>(i % 7), owners);
    }
    // Reads add the pending interval without storing it.
    sim.runFor(sim::Time::fromMillis(1));
    double mj = acc.totalEnergyMj() + acc.uidEnergyMj(owners[0]) +
        acc.channelEnergyMj(ch) + acc.uidChannelEnergyMj(owners[1], ch);
    std::uint64_t after = allocCount();
    EXPECT_GT(mj, 0.0);
    EXPECT_EQ(after, before)
        << "steady setPower re-attribution allocated " << (after - before)
        << " times in 10k iterations";
}

} // namespace
} // namespace leaseos::power

namespace leaseos::os {
namespace {

/** The hardware models and services of tests/os/os_fixture.h. */
struct Phone {
    sim::Simulator sim;
    power::DeviceProfile profile = power::profiles::pixelXl();
    power::EnergyAccountant acc{sim};
    power::CpuModel cpu{sim, acc, profile};
    power::ScreenModel screen{sim, acc, profile};
    power::GpsModel gps{sim, acc, profile};
    power::RadioModel radio{sim, acc, profile};
    power::SensorModel sensors{sim, acc, profile};
    power::AudioModel audio{sim, acc, profile};
    power::BluetoothModel bluetooth{sim, acc, profile};
    SystemServer server{sim,     cpu,   screen,    gps, radio,
                        sensors, audio, bluetooth, acc};
};

TEST(AllocRegressionTest, ServiceAcquireReleaseIsAllocationFree)
{
    Phone phone;
    PowerManagerService &pms = phone.server.powerManager();
    WifiManagerService &wifi = phone.server.wifiManager();

    const Uid a = kFirstAppUid;
    const Uid b = kFirstAppUid + 1;
    const TokenId lockA = pms.newWakeLock(a, WakeLockType::Partial, "a");
    const TokenId lockB = pms.newWakeLock(b, WakeLockType::Partial, "b");
    const TokenId wifiLock = wifi.createWifiLock(a, "w");
    // Each apply() hands the owners to the CPU or radio model; the
    // transfer starts and ends a burst in flight.
    auto cycle = [&] {
        pms.acquire(lockA);
        pms.acquire(lockB);
        wifi.acquire(wifiLock);
        phone.radio.transferWifi(b, 4096);
        phone.sim.runFor(sim::Time::fromMillis(200));
        wifi.release(wifiLock);
        pms.release(lockB);
        pms.release(lockA);
        phone.sim.runFor(sim::Time::fromMillis(200));
    };
    // Warm-up: the uids are interned and every buffer reaches its size.
    for (int i = 0; i < 10; ++i) cycle();
    std::uint64_t before = allocCount();
    for (int i = 0; i < 1'000; ++i) cycle();
    std::uint64_t after = allocCount();
    EXPECT_EQ(after, before)
        << "wakelock and Wi-Fi lock cycles allocated " << (after - before)
        << " times in 1k cycles";
    EXPECT_EQ(pms.acquireCount(a), 1'010u);
    EXPECT_GT(phone.radio.wifiActiveSeconds(b), 0.0);
}

TEST(AllocRegressionTest, SensorSuspendRestoreIsAllocationFree)
{
    // The path a deferred or throttled sensor lease takes: every
    // suspend() and restore() hands the hub its (type, uid) pairs again.
    Phone phone;
    SensorManagerService &sms = phone.server.sensorManager();
    const auto accel = power::SensorType::Accelerometer;
    const sim::Time rate = sim::Time::fromSeconds(1);
    const TokenId regs[] = {
        sms.registerListener(kFirstAppUid, accel, rate, nullptr),
        sms.registerListener(kFirstAppUid + 1, accel, rate, nullptr)};
    auto cycle = [&] {
        for (TokenId reg : regs) {
            sms.suspend(reg);
            phone.sim.runFor(sim::Time::fromMillis(100));
            sms.restore(reg);
            phone.sim.runFor(sim::Time::fromMillis(100));
        }
    };
    for (int i = 0; i < 10; ++i) cycle();
    std::uint64_t before = allocCount();
    for (int i = 0; i < 1'000; ++i) cycle();
    std::uint64_t after = allocCount();
    EXPECT_EQ(after, before)
        << "sensor suspend/restore cycles allocated " << (after - before)
        << " times in 1k cycles";
    EXPECT_TRUE(sms.records().at(regs[0]).enabled);
    EXPECT_TRUE(sms.records().at(regs[1]).enabled);
    EXPECT_GT(sms.eventCount(kFirstAppUid), 0u);
}

} // namespace
} // namespace leaseos::os
