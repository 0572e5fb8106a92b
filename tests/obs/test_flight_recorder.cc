/**
 * @file
 * FlightRecorder tests: dump content (header + metrics snapshot + trace
 * ring), deterministic file naming, the thread-local install protocol,
 * and — the part that earns the reentrancy comment in the header — that
 * a bound-metric callback tripping the oracle *during* a dump records
 * instead of aborting, and that a nested dump() is suppressed rather
 * than tearing the record being written. The abort path itself is
 * covered by a death test whose child leaves the flight record behind
 * for the parent to inspect.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "analysis/invariants.h"
#include "obs/flight_recorder.h"
#include "obs/metric_registry.h"
#include "obs/trace.h"
#include "sim/time.h"

namespace leaseos::obs {
namespace {

using analysis::InvariantOracle;
using sim::Time;

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

/** Fresh per-test scratch directory (removed on destruction). */
struct ScratchDir {
    std::filesystem::path path;

    explicit ScratchDir(const char *name)
        : path(std::filesystem::temp_directory_path() / name)
    {
        std::filesystem::remove_all(path);
    }
    ~ScratchDir() { std::filesystem::remove_all(path); }
};

TEST(FlightRecorderTest, DumpCapturesMetricsAndTraceRing)
{
    ScratchDir dir("leaseos_flightrec_dump");

    MetricRegistry registry;
    MetricId grants = registry.counter("proxy.grants");
    MetricId tau = registry.histogram("lease.deferral_seconds");
    registry.add(grants, 7.0);
    registry.observe(tau, 25.0);
    registry.install();

    TraceBuffer trace(16);
    trace.emit(Time::fromSeconds(1.0), TraceCategory::Lease,
               TraceCode::LeaseCreated, 10001, 42, 3);
    trace.emit(Time::fromSeconds(2.0), TraceCategory::Lease,
               TraceCode::LeaseToDeferred, 10001, 42,
               static_cast<std::uint64_t>(lease::LeaseState::Active));
    trace.install();

    FlightRecorder recorder(dir.path.string(), "unit test"); // sanitized
    FlightRecordContext ctx;
    ctx.reason = "invariant-violation";
    ctx.check = "state-machine";
    ctx.detail = "illegal transition dead->active";
    ctx.simTime = Time::fromSeconds(2.0);
    ctx.leaseId = 42;
    std::string path = recorder.dump(ctx);

    trace.uninstall();
    registry.uninstall();

    ASSERT_FALSE(path.empty());
    EXPECT_EQ(recorder.dumps(), 1u);
    // Deterministic name: sanitized label + sim nanos + sequence.
    EXPECT_EQ(std::filesystem::path(path).filename().string(),
              "flightrec-unit_test-t2000000000-1.json");

    std::string doc = slurp(path);
    EXPECT_NE(doc.find("\"flightrec\":1"), std::string::npos);
    EXPECT_NE(doc.find("\"reason\":\"invariant-violation\""),
              std::string::npos);
    EXPECT_NE(doc.find("\"check\":\"state-machine\""), std::string::npos);
    EXPECT_NE(doc.find("\"sim_time_ns\":2000000000"), std::string::npos);
    EXPECT_NE(doc.find("\"lease\":42"), std::string::npos);
    // Metrics snapshot uses the rollup names (histograms expanded).
    EXPECT_NE(doc.find("\"proxy.grants\":7"), std::string::npos);
    EXPECT_NE(doc.find("\"lease.deferral_seconds.count\":1"),
              std::string::npos);
    EXPECT_NE(doc.find("\"lease.deferral_seconds.p50\""), std::string::npos);
    // Trace ring in the JSON-lines event schema, oldest first.
    EXPECT_NE(doc.find("\"emitted\":2,\"retained\":2,\"dropped\":0"),
              std::string::npos);
    std::size_t created = doc.find("\"ev\":\"lease_created\"");
    std::size_t deferred = doc.find("\"ev\":\"to_deferred\"");
    ASSERT_NE(created, std::string::npos);
    ASSERT_NE(deferred, std::string::npos);
    EXPECT_LT(created, deferred);
}

TEST(FlightRecorderTest, DumpWithoutTelemetryStillWritesHeader)
{
    ScratchDir dir("leaseos_flightrec_bare");
    FlightRecorder recorder(dir.path.string());
    FlightRecordContext ctx;
    ctx.reason = "manual";
    ctx.simTime = Time::fromNanos(5);
    std::string path = recorder.dump(ctx);
    ASSERT_FALSE(path.empty());
    std::string doc = slurp(path);
    EXPECT_NE(doc.find("\"flightrec\":1"), std::string::npos);
    EXPECT_NE(doc.find("\"metrics\":{"), std::string::npos);
    EXPECT_NE(
        doc.find("\"emitted\":0,\"retained\":0,\"dropped\":0,\"events\":[]"),
        std::string::npos);
}

TEST(FlightRecorderTest, NoWorkUntilDump)
{
    // The recorder must be free to install: no directory creation, no
    // files, until a dump is actually requested.
    ScratchDir dir("leaseos_flightrec_lazy");
    {
        FlightRecorder recorder(dir.path.string(), "idle");
        recorder.install();
        EXPECT_EQ(FlightRecorder::current(), &recorder);
        recorder.uninstall();
    }
    EXPECT_FALSE(std::filesystem::exists(dir.path));
}

TEST(FlightRecorderTest, InstallNestsLikeTheOtherTelemetry)
{
    ScratchDir dir("leaseos_flightrec_nest");
    EXPECT_EQ(FlightRecorder::current(), nullptr);
    FlightRecorder outer(dir.path.string(), "outer");
    outer.install();
    {
        FlightRecorder inner(dir.path.string(), "inner");
        inner.install();
        EXPECT_EQ(FlightRecorder::current(), &inner);
        inner.uninstall();
    }
    EXPECT_EQ(FlightRecorder::current(), &outer);
    outer.uninstall();
    EXPECT_EQ(FlightRecorder::current(), nullptr);
}

TEST(FlightRecorderTest, OracleViolationDuringDumpRecordsInsteadOfAborting)
{
    // A bound-metric callback runs while dump() snapshots the registry.
    // If it trips an Abort-mode oracle, the oracle must see inDump() and
    // record the violation instead of aborting into a second dump; a
    // nested dump() call must be suppressed outright.
    ScratchDir dir("leaseos_flightrec_reentry");

    InvariantOracle oracle(InvariantOracle::FailMode::Abort);
    oracle.install();

    FlightRecorder recorder(dir.path.string(), "reentry");
    recorder.install();

    std::string nestedPath = "sentinel";
    MetricRegistry registry;
    registry.boundGauge("hostile.gauge", [&recorder, &nestedPath]() {
        EXPECT_TRUE(FlightRecorder::inDump());
        // Illegal Fig. 5 transition: DEAD is terminal.
        if (auto *o = InvariantOracle::current())
            o->noteLeaseTransition(Time::fromSeconds(1.0), 7,
                                   lease::LeaseState::Dead,
                                   lease::LeaseState::Active);
        FlightRecordContext nested;
        nested.reason = "nested";
        nestedPath = recorder.dump(nested);
        return 1.0;
    });
    registry.install();

    FlightRecordContext ctx;
    ctx.reason = "manual";
    ctx.simTime = Time::fromSeconds(1.0);
    std::string path = recorder.dump(ctx); // must return, not abort

    registry.uninstall();
    recorder.uninstall();
    oracle.uninstall();

    ASSERT_FALSE(path.empty());
    EXPECT_EQ(nestedPath, ""); // reentrant dump suppressed
    EXPECT_EQ(recorder.dumps(), 1u);
    ASSERT_EQ(oracle.violations().size(), 1u);
    EXPECT_EQ(oracle.violations()[0].check, "state-machine");
    // The record itself is complete and well-formed despite the hostile
    // callback.
    std::string doc = slurp(path);
    EXPECT_NE(doc.find("\"hostile.gauge\":1"), std::string::npos);
    EXPECT_NE(doc.find("}}\n"), std::string::npos);
}

TEST(FlightRecorderDeathTest, AbortModeOracleCutsRecordBeforeAborting)
{
    // The acceptance path: a deliberate illegal transition in a checked
    // run must leave a loadable flight record behind *and* kill the
    // process. EXPECT_DEATH forks, so the child's dump survives for the
    // parent to inspect.
    ScratchDir dir("leaseos_flightrec_abort");
    const std::string dirPath = dir.path.string();

    EXPECT_DEATH(
        {
            TraceBuffer trace(8);
            trace.emit(Time::fromSeconds(1.0), TraceCategory::Lease,
                       TraceCode::LeaseCreated, 10001, 9, 0);
            trace.install();
            FlightRecorder recorder(dirPath, "abort");
            recorder.install();
            InvariantOracle oracle(InvariantOracle::FailMode::Abort);
            oracle.install();
            oracle.noteLeaseTransition(Time::fromSeconds(2.0), 9,
                                       lease::LeaseState::Dead,
                                       lease::LeaseState::Active);
        },
        "state-machine");

    // flightrec-abort-t2000000000-1.json, written by the child.
    std::filesystem::path expected =
        dir.path / "flightrec-abort-t2000000000-1.json";
    ASSERT_TRUE(std::filesystem::exists(expected));
    std::string doc = slurp(expected.string());
    EXPECT_NE(doc.find("\"reason\":\"invariant-violation\""),
              std::string::npos);
    EXPECT_NE(doc.find("\"check\":\"state-machine\""), std::string::npos);
    EXPECT_NE(doc.find("\"lease\":9"), std::string::npos);
    EXPECT_NE(doc.find("\"ev\":\"lease_created\""), std::string::npos);
}

} // namespace
} // namespace leaseos::obs
