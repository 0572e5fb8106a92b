/**
 * @file
 * Unit tests for the discrete-event Simulator.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "sim/simulator.h"

namespace leaseos::sim {
namespace {

TEST(SimulatorTest, TimeStartsAtZero)
{
    Simulator sim;
    EXPECT_EQ(sim.now(), Time::zero());
}

TEST(SimulatorTest, RunAdvancesToEventTimes)
{
    Simulator sim;
    std::vector<double> times;
    sim.schedule(2_s, [&] { times.push_back(sim.now().seconds()); });
    sim.schedule(5_s, [&] { times.push_back(sim.now().seconds()); });
    sim.run();
    EXPECT_EQ(times, (std::vector<double>{2.0, 5.0}));
    EXPECT_EQ(sim.now(), 5_s);
}

TEST(SimulatorTest, RunUntilStopsBeforeLaterEvents)
{
    Simulator sim;
    int fired = 0;
    sim.schedule(1_s, [&] { ++fired; });
    sim.schedule(10_s, [&] { ++fired; });
    sim.run(5_s);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(sim.now(), 5_s);
    sim.run();
    EXPECT_EQ(fired, 2);
}

TEST(SimulatorTest, EventAtExactHorizonFires)
{
    Simulator sim;
    bool fired = false;
    sim.schedule(5_s, [&] { fired = true; });
    sim.run(5_s);
    EXPECT_TRUE(fired);
}

TEST(SimulatorTest, RunForAdvancesRelative)
{
    Simulator sim;
    sim.runFor(10_s);
    EXPECT_EQ(sim.now(), 10_s);
    sim.runFor(5_s);
    EXPECT_EQ(sim.now(), 15_s);
}

TEST(SimulatorTest, EventsScheduledDuringRunExecute)
{
    Simulator sim;
    int depth = 0;
    sim.schedule(1_s, [&] {
        ++depth;
        sim.schedule(1_s, [&] { ++depth; });
    });
    sim.run();
    EXPECT_EQ(depth, 2);
    EXPECT_EQ(sim.now(), 2_s);
}

TEST(SimulatorTest, ScheduleAtClampsPastTimes)
{
    Simulator sim;
    sim.runFor(10_s);
    Time fired_at;
    sim.scheduleAt(5_s, [&] { fired_at = sim.now(); });
    sim.run();
    EXPECT_EQ(fired_at, 10_s);
}

TEST(SimulatorTest, CancelPreventsExecution)
{
    Simulator sim;
    bool fired = false;
    EventId id = sim.schedule(1_s, [&] { fired = true; });
    EXPECT_TRUE(sim.pending(id));
    sim.cancel(id);
    sim.run();
    EXPECT_FALSE(fired);
}

TEST(SimulatorTest, PeriodicHonoursHorizon)
{
    Simulator sim;
    int count = 0;
    PeriodicHandle handle = sim.schedulePeriodicScoped(1_s, [&] { ++count; });
    sim.run(10_s);
    EXPECT_EQ(count, 10);
}

TEST(PeriodicHandleTest, CancelStopsTheWholeRepetition)
{
    Simulator sim;
    int count = 0;
    PeriodicHandle handle =
        sim.schedulePeriodicScoped(1_s, [&] { ++count; });
    EXPECT_TRUE(handle.active());
    sim.run(3_s);
    EXPECT_EQ(count, 3);
    handle.cancel();
    EXPECT_FALSE(handle.active());
    sim.run(10_s);
    EXPECT_EQ(count, 3);
}

TEST(PeriodicHandleTest, DestructionCancelsRaiiStyle)
{
    Simulator sim;
    int count = 0;
    {
        PeriodicHandle handle =
            sim.schedulePeriodicScoped(1_s, [&] { ++count; });
        sim.run(2_s);
    }
    sim.run(10_s);
    EXPECT_EQ(count, 2);
}

TEST(PeriodicHandleTest, MoveTransfersOwnership)
{
    Simulator sim;
    int count = 0;
    PeriodicHandle a = sim.schedulePeriodicScoped(1_s, [&] { ++count; });
    PeriodicHandle b = std::move(a);
    EXPECT_TRUE(b.active());
    sim.run(2_s);
    EXPECT_EQ(count, 2);
    b.cancel();
    sim.run(5_s);
    EXPECT_EQ(count, 2);
}

TEST(PeriodicHandleTest, CallbackMayCancelItsOwnHandle)
{
    Simulator sim;
    int count = 0;
    PeriodicHandle handle;
    handle = sim.schedulePeriodicScoped(1_s, [&] {
        if (++count == 3) handle.cancel();
    });
    sim.run();
    EXPECT_EQ(count, 3);
    EXPECT_FALSE(handle.active());
}

TEST(PeriodicHandleTest, HandleCancelWorksAfterManyFires)
{
    // Regression: the repetition must stay cancellable long after the
    // first occurrence fired (the stale-EventId failure mode).
    Simulator sim;
    int count = 0;
    PeriodicHandle handle = sim.schedulePeriodicScoped(1_s, [&] { ++count; });
    sim.run(50_s);
    EXPECT_EQ(count, 50);
    EXPECT_TRUE(handle.active());
    handle.cancel();
    std::size_t pendingAfterCancel = sim.pendingEvents();
    sim.run(100_s);
    EXPECT_EQ(count, 50);
    EXPECT_EQ(pendingAfterCancel, 0u)
        << "cancelling the handle must remove the pending occurrence";
}

TEST(SimulatorTest, DestroysPendingClosuresThatOwnHandles)
{
    // A script that re-arms itself (bench_fleet's week script) keeps its
    // own PeriodicHandle inside the repeating closure, and a one-shot
    // closure may own another repetition's handle. Destroying the
    // simulator destroys those closures, and each handle then cancels
    // into the queue being torn down. Under ASan this was a
    // heap-use-after-free in EventQueue::cancel.
    auto sim = std::make_unique<Simulator>();
    int fires = 0;
    auto self = std::make_shared<PeriodicHandle>();
    *self = sim->schedulePeriodicScoped(1_s, [self, &fires] { ++fires; });
    auto other = std::make_shared<PeriodicHandle>();
    *other = sim->schedulePeriodicScoped(1_s, [&fires] { ++fires; });
    sim->schedule(60_min, [other] {});
    self.reset();
    other.reset();
    sim->run(2_s);
    EXPECT_EQ(fires, 4);
    EXPECT_EQ(sim->pendingEvents(), 3u);
    sim.reset();
}

TEST(SimulatorTest, ExecutedEventsCounted)
{
    Simulator sim;
    for (int i = 0; i < 7; ++i) sim.schedule(1_s, [] {});
    sim.run();
    EXPECT_EQ(sim.executedEvents(), 7u);
}

TEST(SimulatorTest, DrainedRunClampsToHorizon)
{
    Simulator sim;
    sim.schedule(1_s, [] {});
    Time end = sim.run(30_s);
    EXPECT_EQ(end, 30_s);
    EXPECT_EQ(sim.now(), 30_s);
}

} // namespace
} // namespace leaseos::sim
