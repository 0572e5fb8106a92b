/**
 * @file
 * Microbenchmark of the sim::EventQueue hot path — the core every
 * experiment (all Table-5 cells, the Fig. 9–14 sweeps, the fleet
 * scenario) funnels through.
 *
 * Four workloads exercise the schedule/pop/cancel mixes a real run
 * produces:
 *
 *   schedule_pop    bulk schedule at random times, then drain;
 *   schedule_cancel bulk schedule, then cancel everything;
 *   steady_churn    pop-one/schedule-one around a fixed pending window
 *                   (the steady state of a long simulation);
 *   cancel_churn    cancel-one/schedule-one around a fixed window (timer
 *                   reset patterns: lease terms, backoffs, watchdogs).
 *
 * Each workload runs `reps` times and reports the best ns/op (one op =
 * one schedule, pop, or cancel) so background noise biases all variants
 * equally. The stdout table reports ns/op and allocations/op;
 * BENCH_eventqueue.json keeps only the op and allocation counts, so a
 * rerun on any host reproduces it byte for byte.
 *
 * Event times are drawn from the seeded sim::RandomSource; the wall
 * clock is read only to time the workloads themselves.
 */

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <deque>
#include <string>
#include <vector>

#include "harness/result_sink.h"
#include "obs/trace.h"
#include "obs/trace_export.h"
#include "sim/event_queue.h"
#include "sim/random.h"
#include "sim/time.h"
#include "support/alloc_counter.h"

using namespace leaseos;
using sim::EventId;
using sim::EventQueue;
using sim::Time;

namespace {

std::int64_t
nowNanos()
{
    // leaselint: allow(determinism) -- microbench: wall time is the measurand
    auto now = std::chrono::steady_clock::now().time_since_epoch();
    return std::chrono::duration_cast<std::chrono::nanoseconds>(now)
        .count();
}

/** Side effect shared by every callback so the work cannot be elided. */
std::uint64_t g_fired = 0;

EventQueue::Callback
makeCallback()
{
    return [] { ++g_fired; };
}

struct WorkloadResult {
    std::string name;
    std::uint64_t ops = 0;
    double nsPerOp = 0.0;
    /** Heap allocations per op once the queue reached steady state. */
    double allocsPerOp = 0.0;
};

/**
 * Steady-state allocations per op: run @p warm once (sizing the slot
 * pool, heap, and inline-callback storage), then count global operator-new
 * calls across @p steady, which performs @p ops operations.
 */
template <typename Warm, typename Steady>
double
measureAllocs(std::uint64_t ops, Warm warm, Steady steady)
{
    warm();
    std::uint64_t a0 = benchsupport::allocCount();
    steady();
    std::uint64_t a1 = benchsupport::allocCount();
    return static_cast<double>(a1 - a0) / static_cast<double>(ops);
}

/** Run @p body (returning its op count) @p reps times; keep the best. */
template <typename F>
WorkloadResult
measure(const std::string &name, int reps, F body)
{
    WorkloadResult result;
    result.name = name;
    double best = 0.0;
    for (int r = 0; r < reps; ++r) {
        std::int64_t t0 = nowNanos();
        std::uint64_t ops = body();
        std::int64_t t1 = nowNanos();
        double perOp =
            static_cast<double>(t1 - t0) / static_cast<double>(ops);
        if (r == 0 || perOp < best) best = perOp;
        result.ops = ops;
    }
    result.nsPerOp = best;
    return result;
}

std::vector<Time>
randomTimes(std::uint64_t n, std::uint64_t seed)
{
    sim::RandomSource rng(seed);
    std::vector<Time> times;
    times.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i)
        times.push_back(
            Time::fromNanos(rng.uniformInt(0, 3'600'000'000'000LL)));
    return times;
}

WorkloadResult
benchSchedulePop(std::uint64_t n, int reps)
{
    auto times = randomTimes(n, 0xbe7c1);
    auto result = measure("schedule_pop", reps, [&] {
        EventQueue q;
        for (Time t : times) q.schedule(t, makeCallback());
        while (!q.empty()) q.pop().second();
        return 2 * n;
    });
    EventQueue q;
    auto cycle = [&] {
        for (Time t : times) q.schedule(t, makeCallback());
        while (!q.empty()) q.pop().second();
    };
    result.allocsPerOp = measureAllocs(2 * n, cycle, cycle);
    return result;
}

WorkloadResult
benchScheduleCancel(std::uint64_t n, int reps)
{
    auto times = randomTimes(n, 0xbe7c2);
    std::vector<EventId> ids(n);
    auto result = measure("schedule_cancel", reps, [&] {
        EventQueue q;
        for (std::uint64_t i = 0; i < n; ++i)
            ids[i] = q.schedule(times[i], makeCallback());
        for (EventId id : ids) q.cancel(id);
        return 2 * n;
    });
    EventQueue q;
    auto cycle = [&] {
        for (std::uint64_t i = 0; i < n; ++i)
            ids[i] = q.schedule(times[i], makeCallback());
        for (EventId id : ids) q.cancel(id);
    };
    result.allocsPerOp = measureAllocs(2 * n, cycle, cycle);
    return result;
}

WorkloadResult
benchSteadyChurn(std::uint64_t n, std::uint64_t window, int reps)
{
    auto times = randomTimes(n + window, 0xbe7c3);
    auto result = measure("steady_churn", reps, [&] {
        EventQueue q;
        std::uint64_t next = 0;
        Time base = Time::zero();
        for (std::uint64_t i = 0; i < window; ++i)
            q.schedule(times[next++], makeCallback());
        for (std::uint64_t i = 0; i < n; ++i) {
            auto [when, cb] = q.pop();
            base = when;
            cb();
            q.schedule(base + times[next++], makeCallback());
        }
        while (!q.empty()) q.pop();
        return 2 * n;
    });
    // Alloc oracle: filling the window sizes the pool; the churn loop
    // itself must then be allocation-free (DESIGN.md §8).
    EventQueue q;
    std::uint64_t next = 0;
    Time base = Time::zero();
    result.allocsPerOp = measureAllocs(
        2 * n,
        [&] {
            for (std::uint64_t i = 0; i < window; ++i)
                q.schedule(times[next++], makeCallback());
        },
        [&] {
            for (std::uint64_t i = 0; i < n; ++i) {
                auto [when, cb] = q.pop();
                base = when;
                cb();
                q.schedule(base + times[next++], makeCallback());
            }
        });
    return result;
}

WorkloadResult
benchCancelChurn(std::uint64_t n, std::uint64_t window, int reps)
{
    auto times = randomTimes(n + window, 0xbe7c4);
    auto result = measure("cancel_churn", reps, [&] {
        EventQueue q;
        std::deque<EventId> live;
        std::uint64_t next = 0;
        for (std::uint64_t i = 0; i < window; ++i)
            live.push_back(q.schedule(times[next++], makeCallback()));
        for (std::uint64_t i = 0; i < n; ++i) {
            q.cancel(live.front());
            live.pop_front();
            live.push_back(q.schedule(times[next++], makeCallback()));
        }
        while (!q.empty()) q.pop();
        return 2 * n;
    });
    // Warm with the first half of the churn (lazy-cancel tombstones grow
    // the heap to its high-water mark), then count over the second half.
    // A fixed ring (not a deque) holds the live ids so the harness itself
    // cannot allocate inside the counted region.
    EventQueue q;
    std::vector<EventId> live(window);
    std::uint64_t head = 0;
    std::uint64_t next = 0;
    std::uint64_t half = n / 2;
    auto churn = [&](std::uint64_t ops) {
        for (std::uint64_t i = 0; i < ops; ++i) {
            q.cancel(live[head]);
            live[head] = q.schedule(times[next++], makeCallback());
            head = (head + 1) % window;
        }
    };
    result.allocsPerOp = measureAllocs(
        2 * (n - half),
        [&] {
            for (std::uint64_t i = 0; i < window; ++i)
                live[i] = q.schedule(times[next++], makeCallback());
            churn(half);
        },
        [&] { churn(n - half); });
    return result;
}

} // namespace

int
main(int argc, char **argv)
{
    // --ops=N runs N iterations per workload; each row reports 2N ops
    // (default 500,000; CI's gate and the committed baseline use 1M).
    std::uint64_t n = 500'000;
    int reps = 5;
    std::string tracePath;
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], "--ops=", 6) == 0)
            n = std::strtoull(argv[i] + 6, nullptr, 10);
        else if (std::strncmp(argv[i], "--reps=", 7) == 0)
            reps = static_cast<int>(std::strtol(argv[i] + 7, nullptr, 10));
        else if (std::strncmp(argv[i], "--trace=", 8) == 0)
            tracePath = argv[i] + 8;
    }

    // Install the ring before any workload constructs a queue (queues
    // cache TraceBuffer::current() at construction). Queue events are
    // 1-in-64 sampled, so a modest ring covers the whole run.
    obs::TraceBuffer trace(1u << 14);
    if (!tracePath.empty()) {
        trace.install();
#if !defined(LEASEOS_TRACING)
        std::fprintf(stderr,
                     "[bench_eventqueue] warning: --trace given but hooks "
                     "are compiled out; rebuild with -DLEASEOS_TRACING=ON\n");
#endif
    }

    const std::uint64_t window = 4096; // pending events in steady state

    std::vector<WorkloadResult> results;
    results.push_back(benchSchedulePop(n, reps));
    results.push_back(benchScheduleCancel(n, reps));
    results.push_back(benchSteadyChurn(n, window, reps));
    results.push_back(benchCancelChurn(n, window, reps));

    // The artifact keeps only what a rerun reproduces (op and allocation
    // counts); ns/op is wall time and goes to the stdout table alone.
    using Value = harness::ResultSink::Value;
    const std::string workloads =
        "window " + std::to_string(window) + " pending in churn workloads.";
    harness::TextTableSink table;
    harness::JsonSink json(harness::benchArtifactPath("eventqueue"));
    table.begin("EventQueue microbench",
                "ns per event-queue operation (schedule/pop/cancel), best "
                "of " + std::to_string(reps) + " reps, " + workloads);
    json.begin("EventQueue microbench",
               "heap allocations per event-queue operation "
               "(schedule/pop/cancel), " + workloads);
    for (const auto &r : results) {
        const Value name = Value::str(r.name);
        const Value ops = Value::count(static_cast<std::int64_t>(r.ops));
        const Value allocs = Value::num(r.allocsPerOp, 6);
        table.addRow({{"workload", name},
                      {"ops", ops},
                      {"ns_per_op", Value::num(r.nsPerOp, 2)},
                      {"allocs_per_op", allocs}});
        json.addRow(
            {{"workload", name}, {"ops", ops}, {"allocs_per_op", allocs}});
    }
    table.finish();
    json.finish();
    if (!tracePath.empty()) {
        if (!obs::writeTraceFile(trace, tracePath))
            std::fprintf(stderr, "[bench_eventqueue] cannot write %s\n",
                         tracePath.c_str());
        else
            std::fprintf(stderr,
                         "[bench_eventqueue] wrote %s (%llu events "
                         "retained, %llu emitted)\n",
                         tracePath.c_str(),
                         static_cast<unsigned long long>(trace.size()),
                         static_cast<unsigned long long>(trace.emitted()));
    }
    std::fprintf(stderr, "[bench_eventqueue] fired=%llu\n",
                 static_cast<unsigned long long>(g_fired));
    return 0;
}
