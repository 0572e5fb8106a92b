/**
 * @file
 * tracereplay tests: the minijson reader, both load formats (JSON-lines
 * export and flightrec-*.json), the offline legality validator against
 * clean and deliberately corrupted timelines, --diff first-divergence
 * reporting, and the end-to-end determinism contract — the same Table 5
 * cell run twice produces byte-identical event streams (meaningful under
 * -DLEASEOS_TRACING; trivially empty otherwise, asserted either way).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "apps/registry.h"
#include "harness/experiment.h"
#include "harness/runner.h"
#include "sim/checkpoint.h"
#include "support/minijson.h"
#include "tracereplay/checkpoint_view.h"
#include "tracereplay/replay.h"

namespace leaseos::tracereplay {
namespace {

struct ScratchDir {
    std::filesystem::path path;

    explicit ScratchDir(const char *name)
        : path(std::filesystem::temp_directory_path() / name)
    {
        std::filesystem::remove_all(path);
        std::filesystem::create_directories(path);
    }
    ~ScratchDir() { std::filesystem::remove_all(path); }
};

std::string
writeFile(const ScratchDir &dir, const char *name, const std::string &text)
{
    std::string path = (dir.path / name).string();
    std::ofstream out(path, std::ios::binary);
    out << text;
    return path;
}

/** One trace line in the exporter's schema. */
std::string
line(std::int64_t t, const char *cat, const char *ev, int uid,
     std::uint64_t leaseId, const std::string &payload = "0")
{
    std::ostringstream os;
    os << "{\"t\":" << t << ",\"cat\":\"" << cat << "\",\"ev\":\"" << ev
       << "\",\"uid\":" << uid << ",\"lease\":" << leaseId
       << ",\"payload\":" << payload << "}\n";
    return os.str();
}

// ---- minijson -----------------------------------------------------------

TEST(MiniJsonTest, ParsesScalarsObjectsAndArrays)
{
    auto parsed = minijson::parse(
        "{\"a\":1.5,\"b\":\"x\\ny\",\"c\":[true,false,null],\"d\":{}}");
    ASSERT_TRUE(parsed.ok()) << parsed.error;
    const minijson::Value &v = parsed.value;
    ASSERT_TRUE(v.isObject());
    EXPECT_DOUBLE_EQ(v.find("a")->asNumber(), 1.5);
    EXPECT_EQ(v.find("b")->asString(), "x\ny");
    ASSERT_TRUE(v.find("c")->isArray());
    ASSERT_EQ(v.find("c")->array.size(), 3u);
    EXPECT_TRUE(v.find("c")->array[0].boolean);
    EXPECT_TRUE(v.find("c")->array[2].isNull());
    EXPECT_TRUE(v.find("d")->isObject());
    EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(MiniJsonTest, KeepsRawTokensFor64BitPrecision)
{
    // 2^53 + 1 is not representable as a double; the raw token must
    // survive so exact diffs (bit-cast payloads, lease ids) still work.
    auto parsed = minijson::parse("{\"p\":9007199254740993}");
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value.find("p")->raw, "9007199254740993");
}

TEST(MiniJsonTest, ReportsErrorsWithLineNumbers)
{
    auto bad = minijson::parse("{\"a\":1,\n\"b\":}");
    EXPECT_FALSE(bad.ok());
    EXPECT_EQ(bad.line, 2u);
    EXPECT_FALSE(minijson::parse("").ok());
    EXPECT_FALSE(minijson::parse("{\"a\":1} trailing").ok());
}

// ---- loadTrace ----------------------------------------------------------

TEST(TraceReplayTest, LoadsJsonLinesTrace)
{
    ScratchDir dir("leaseos_replay_load");
    std::string path = writeFile(
        dir, "t.jsonl",
        line(1000, "lease", "lease_created", 10001, 42, "3") +
            line(2000, "proxy", "grant", 10001, 42));
    Trace trace = loadTrace(path);
    ASSERT_TRUE(trace.ok()) << trace.error;
    EXPECT_FALSE(trace.flightRecord);
    ASSERT_EQ(trace.events.size(), 2u);
    EXPECT_EQ(trace.events[0].ev, "lease_created");
    EXPECT_EQ(trace.events[0].payload, 3u);
    EXPECT_EQ(trace.events[1].timeNs, 2000);
    EXPECT_EQ(trace.events[1].cat, "proxy");
}

TEST(TraceReplayTest, LoadsFlightRecordDocument)
{
    ScratchDir dir("leaseos_replay_fr");
    std::string doc =
        "{\"flightrec\":1,\n"
        "\"label\":\"run\",\"reason\":\"invariant-violation\",\n"
        "\"check\":\"state-machine\",\"detail\":\"dead->active\",\n"
        "\"sim_time_ns\":5,\"lease\":42,\n"
        "\"metrics\":{\"proxy.grants\":7},\n"
        "\"trace\":{\"emitted\":2,\"retained\":2,\"dropped\":0,"
        "\"events\":[\n" +
        line(1, "lease", "lease_created", 1, 42, "0") + "," +
        line(2, "lease", "to_inactive", 1, 42, "0") + "]}}\n";
    std::string path = writeFile(dir, "flightrec-run-t5-1.json", doc);
    Trace trace = loadTrace(path);
    ASSERT_TRUE(trace.ok()) << trace.error;
    EXPECT_TRUE(trace.flightRecord);
    EXPECT_EQ(trace.check, "state-machine");
    EXPECT_EQ(trace.detail, "dead->active");
    ASSERT_EQ(trace.events.size(), 2u);
    EXPECT_EQ(trace.events[1].ev, "to_inactive");
}

TEST(TraceReplayTest, LoadReportsMissingFileAndBadLines)
{
    ScratchDir dir("leaseos_replay_bad");
    EXPECT_FALSE(loadTrace((dir.path / "nope.jsonl").string()).ok());
    std::string path =
        writeFile(dir, "bad.jsonl",
                  line(1, "lease", "lease_created", 1, 1) + "{\"t\":2}\n");
    Trace trace = loadTrace(path);
    EXPECT_FALSE(trace.ok());
    EXPECT_NE(trace.error.find("line 2"), std::string::npos) << trace.error;
}

// ---- validate -----------------------------------------------------------

TEST(TraceReplayTest, CleanLifecycleValidatesClean)
{
    ScratchDir dir("leaseos_replay_clean");
    // created(Active) -> deferred -> active -> inactive -> dead, with
    // proxy decisions consistent with the tracked state throughout.
    std::string path = writeFile(
        dir, "t.jsonl",
        line(1, "lease", "lease_created", 1, 7, "3") +
            line(2, "proxy", "grant", 1, 7) +
            line(3, "utility", "utility_charge", 1, 7, "123") +
            line(4, "lease", "to_deferred", 1, 7, "0") + // from Active
            line(5, "proxy", "defer", 1, 7) +
            line(6, "lease", "to_active", 1, 7, "2") + // from Deferred
            line(7, "lease", "to_inactive", 1, 7, "0") +
            line(8, "proxy", "deny", 1, 7) +
            line(9, "lease", "to_dead", 1, 7, "1"));
    ReplayReport report = validate(loadTrace(path));
    EXPECT_TRUE(report.clean())
        << (report.issues.empty() ? "" : report.issues[0].toString());
    EXPECT_EQ(report.eventCount, 9u);
    EXPECT_EQ(report.leaseCount, 1u);
    EXPECT_EQ(report.transitionsChecked, 4u);
    EXPECT_EQ(report.inferredLeases, 0u);
}

TEST(TraceReplayTest, PinpointsIllegalTransition)
{
    ScratchDir dir("leaseos_replay_illegal");
    // INACTIVE -> DEFERRED is not in the Fig. 5 relation.
    std::string path = writeFile(
        dir, "t.jsonl",
        line(1, "lease", "lease_created", 1, 7, "3") +
            line(2, "lease", "to_inactive", 1, 7, "0") +
            line(3, "lease", "to_deferred", 1, 7, "1"));
    ReplayReport report = validate(loadTrace(path));
    ASSERT_EQ(report.issues.size(), 1u);
    EXPECT_EQ(report.issues[0].eventIndex, 2u);
    EXPECT_EQ(report.issues[0].check, "state-machine");
    EXPECT_NE(report.issues[0].detail.find("INACTIVE"), std::string::npos);
}

TEST(TraceReplayTest, CatchesPayloadStateDisagreement)
{
    ScratchDir dir("leaseos_replay_payload");
    // Emitter claims from=Deferred but the replay tracked Active.
    std::string path = writeFile(
        dir, "t.jsonl",
        line(1, "lease", "lease_created", 1, 7, "3") +
            line(2, "lease", "to_active", 1, 7, "2"));
    ReplayReport report = validate(loadTrace(path));
    ASSERT_FALSE(report.clean());
    EXPECT_EQ(report.issues[0].check, "trace-payload");
}

TEST(TraceReplayTest, CatchesProxyDecisionViolations)
{
    ScratchDir dir("leaseos_replay_proxy");
    std::string path = writeFile(
        dir, "t.jsonl",
        line(1, "lease", "lease_created", 1, 7, "3") +
            line(2, "lease", "to_inactive", 1, 7, "0") +
            line(3, "proxy", "grant", 1, 7) +       // grant while INACTIVE
            line(4, "utility", "utility_charge", 1, 7) + // charge, too
            line(5, "lease", "to_active", 1, 7, "1") +
            line(6, "proxy", "deny", 1, 7));        // deny while ACTIVE
    ReplayReport report = validate(loadTrace(path));
    ASSERT_EQ(report.issues.size(), 3u);
    EXPECT_EQ(report.issues[0].eventIndex, 2u);
    EXPECT_EQ(report.issues[0].check, "proxy-decision");
    EXPECT_EQ(report.issues[1].eventIndex, 3u);
    EXPECT_EQ(report.issues[2].eventIndex, 5u);
}

TEST(TraceReplayTest, DetectsTimeRunningBackwardsAndDuplicateCreate)
{
    ScratchDir dir("leaseos_replay_time");
    std::string path = writeFile(
        dir, "t.jsonl",
        line(10, "lease", "lease_created", 1, 7, "3") +
            line(5, "lease", "lease_created", 1, 7, "3"));
    ReplayReport report = validate(loadTrace(path));
    ASSERT_EQ(report.issues.size(), 2u);
    EXPECT_EQ(report.issues[0].check, "time-monotonicity");
    EXPECT_EQ(report.issues[1].check, "duplicate-create");
}

TEST(TraceReplayTest, DeadlineStampedQueueEventsDoNotTripTheClock)
{
    ScratchDir dir("leaseos_replay_deadline");
    // Queue schedule/cancel carry the slot's *deadline* in t, so a
    // setup-time schedule for the run's end legitimately precedes t=0
    // events in the emission-ordered ring; a cancel can equally carry a
    // deadline behind the clock. Neither may advance or trip the clock —
    // but a backwards non-queue event after them still must.
    std::string path = writeFile(
        dir, "t.jsonl",
        line(600000000000, "queue", "schedule", 1000, 1) +
            line(0, "lease", "lease_created", 1, 7) +
            line(20, "lease", "to_inactive", 1, 7, "0") +
            line(5, "queue", "cancel", 1000, 1) +
            line(30, "queue", "fire", 1000, 2) +
            line(25, "lease", "to_active", 1, 7, "1"));
    ReplayReport report = validate(loadTrace(path));
    ASSERT_EQ(report.issues.size(), 1u)
        << (report.issues.empty() ? "" : report.issues[0].toString());
    EXPECT_EQ(report.issues[0].check, "time-monotonicity");
    EXPECT_EQ(report.issues[0].eventIndex, 5u);
}

TEST(TraceReplayTest, AdoptsLeasesBornBeforeRingWrap)
{
    ScratchDir dir("leaseos_replay_wrap");
    // No lease_created — the ring wrapped past it. The first transition's
    // payload seeds the tracked state; this is counted, not flagged.
    std::string path = writeFile(
        dir, "t.jsonl",
        line(1, "lease", "to_active", 1, 7, "2") + // from Deferred
            line(2, "proxy", "grant", 1, 7));
    ReplayReport report = validate(loadTrace(path));
    EXPECT_TRUE(report.clean())
        << (report.issues.empty() ? "" : report.issues[0].toString());
    EXPECT_EQ(report.inferredLeases, 1u);
}

// ---- diff ---------------------------------------------------------------

TEST(TraceReplayTest, DiffReportsFirstDivergingField)
{
    ScratchDir dir("leaseos_replay_diff");
    std::string base = line(1, "lease", "lease_created", 1, 7, "3") +
                       line(2, "proxy", "grant", 1, 7);
    Trace a = loadTrace(writeFile(dir, "a.jsonl", base));
    Trace b = loadTrace(writeFile(
        dir, "b.jsonl", line(1, "lease", "lease_created", 1, 7, "3") +
                            line(2, "proxy", "deny", 1, 7)));
    EXPECT_FALSE(diffTraces(a, a).diverged);

    DiffResult diff = diffTraces(a, b);
    ASSERT_TRUE(diff.diverged);
    EXPECT_EQ(diff.index, 1u);
    EXPECT_EQ(diff.field, "ev");

    // Prefix relation diverges on length, reporting the extra event.
    Trace shorter =
        loadTrace(writeFile(dir, "c.jsonl",
                            line(1, "lease", "lease_created", 1, 7, "3")));
    DiffResult tail = diffTraces(a, shorter);
    ASSERT_TRUE(tail.diverged);
    EXPECT_EQ(tail.index, 1u);
    EXPECT_EQ(tail.field, "length");
    EXPECT_EQ(tail.b, "<absent>");

    // Payload comparison is on the raw token: equal doubles, different
    // 64-bit values must diverge.
    Trace p1 = loadTrace(writeFile(
        dir, "p1.jsonl",
        line(1, "lease", "lease_created", 1, 7, "9007199254740993")));
    Trace p2 = loadTrace(writeFile(
        dir, "p2.jsonl",
        line(1, "lease", "lease_created", 1, 7, "9007199254740992")));
    DiffResult raw = diffTraces(p1, p2);
    ASSERT_TRUE(raw.diverged);
    EXPECT_EQ(raw.field, "payload");
}

// ---- determinism: one Table 5 cell, run twice ---------------------------

TEST(TraceReplayTest, TracedCellRunIsDeterministic)
{
    ScratchDir dir("leaseos_replay_det");
    harness::MitigationRunOptions opt;
    opt.duration = sim::Time::fromMinutes(8.0);

    auto runOnce = [&](const char *name) {
        harness::RunSpec spec = harness::mitigationCellSpec(
            apps::buggySpec("k9"), harness::MitigationMode::LeaseOS, opt);
        spec.withTrace((dir.path / name).string(), 1u << 12);
        harness::runScenario(spec);
        return loadTrace((dir.path / name).string());
    };
    Trace first = runOnce("run1.jsonl");
    Trace second = runOnce("run2.jsonl");
    ASSERT_TRUE(first.ok()) << first.error;
    ASSERT_TRUE(second.ok()) << second.error;

    DiffResult diff = diffTraces(first, second);
    EXPECT_FALSE(diff.diverged)
        << "event #" << diff.index << " field=" << diff.field << "\n  a: "
        << diff.a << "\n  b: " << diff.b;

#if defined(LEASEOS_TRACING)
    // With hooks compiled in the cell must actually emit events, and the
    // real timeline must satisfy the offline legality rules.
    ASSERT_FALSE(first.events.empty());
    ReplayReport report = validate(first);
    EXPECT_TRUE(report.clean())
        << (report.issues.empty() ? "" : report.issues[0].toString());
    EXPECT_GT(report.transitionsChecked, 0u);
#else
    // Hooks compiled out: the export is empty but the determinism
    // contract (and the file round-trip) still holds.
    EXPECT_TRUE(first.events.empty());
#endif
}

TEST(CheckpointViewTest, LoadsBlobWrittenByHarnessRun)
{
    ScratchDir dir("leaseos_replay_ckpt");
    harness::MitigationRunOptions opt;
    opt.duration = sim::Time::fromMinutes(5.0);
    harness::RunSpec spec = harness::mitigationCellSpec(
        apps::buggySpec("torch"), harness::MitigationMode::LeaseOS, opt);
    spec.withName("cell").withCheckpoints(
        sim::Time::fromNanos(opt.duration.nanos() / 2), dir.path.string());
    harness::RunResult result = harness::runScenario(spec);
    ASSERT_EQ(result.checkpoints.size(), 2u);

    std::vector<std::string> blobs;
    for (const auto &entry : std::filesystem::directory_iterator(dir.path))
        if (entry.path().extension() == ".ckpt")
            blobs.push_back(entry.path().string());
    std::sort(blobs.begin(), blobs.end());
    ASSERT_EQ(blobs.size(), 2u);

    CheckpointView view = loadCheckpointView(blobs.back());
    ASSERT_TRUE(view.ok()) << view.error;
    EXPECT_EQ(view.mode, 1); // MitigationMode::LeaseOS
    EXPECT_EQ(view.profile, "Pixel XL");
    EXPECT_EQ(view.appCount, 1u);
    EXPECT_EQ(view.simTimeNs, opt.duration.nanos());
    EXPECT_GT(view.executedEvents, 0u);
    EXPECT_GT(view.totalMj, 0.0);
    EXPECT_TRUE(view.hasLeases);
    EXPECT_GE(view.nextLeaseId, 2u); // torch took at least one lease
    ASSERT_FALSE(view.sections.empty());
    EXPECT_EQ(view.sections.front().name, "meta");
    EXPECT_EQ(view.sections.back().name, "apps");

    // A blob from a real boundary satisfies the quiescence invariants.
    std::vector<CheckpointIssue> issues = checkCheckpoint(view);
    EXPECT_TRUE(issues.empty())
        << (issues.empty() ? "" : issues[0].toString());

    // Unreadable path surfaces as a load error, not a throw.
    CheckpointView missing =
        loadCheckpointView((dir.path / "absent.ckpt").string());
    EXPECT_FALSE(missing.ok());

    // A digest-valid blob whose one section claims 2^64 - 17 body bytes:
    // the length must not wrap the reader backwards into an endless walk
    // over the same section.
    sim::CheckpointWriter w;
    w.beginSection("x", 1);
    w.u64(0);
    w.endSection();
    std::vector<std::uint8_t> blob = w.finish();
    auto putLe64 = [&blob](std::size_t at, std::uint64_t v) {
        for (std::size_t i = 0; i < 8; ++i)
            blob[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
    };
    putLe64(32 + 4 + 1 + 4, ~std::uint64_t{0} - 16); // section "x" bodyLen
    putLe64(24, sim::checkpointDigest(blob.data() + 32, blob.size() - 32));
    ASSERT_EQ(blob.size(), 57u);
    std::string wrappedPath = (dir.path / "wrapped.ckpt").string();
    ASSERT_TRUE(sim::writeCheckpointFile(wrappedPath, blob));
    CheckpointView wrapped = loadCheckpointView(wrappedPath);
    EXPECT_FALSE(wrapped.ok());
    EXPECT_TRUE(wrapped.sections.empty());
}

TEST(CheckpointViewTest, ChecksFlagCorruptedLeaseTables)
{
    CheckpointView view;
    view.hasLeases = true;
    view.simTimeNs = 1000;
    view.nextLeaseId = 3;

    CkptLease active;
    active.id = 1;
    active.token = 0x11;
    active.state = 0; // Active, but its term ended before the boundary
    active.termStartNs = 0;
    active.termLengthNs = 500;
    view.leases.push_back(active);

    CkptLease bogus;
    bogus.id = 7; // >= nextLeaseId
    bogus.state = 9; // not a LeaseState
    view.leases.push_back(bogus);

    view.byToken.emplace_back(0x11, 1); // ok
    view.byToken.emplace_back(0x22, 1); // token disagrees with lease 1
    view.byToken.emplace_back(0x33, 5); // unknown lease id

    std::vector<CheckpointIssue> issues = checkCheckpoint(view);
    std::vector<std::string> checks;
    for (const CheckpointIssue &issue : issues) checks.push_back(issue.check);
    EXPECT_EQ(checks,
              (std::vector<std::string>{"term-deadline", "lease-state",
                                        "token-index", "token-index"}));
}

TEST(CheckpointViewTest, BaselineSeedsValidateWithoutInference)
{
    CheckpointView view;
    view.hasLeases = true;
    view.simTimeNs = 5000;
    view.nextLeaseId = 3;
    CkptLease lease;
    lease.id = 2;
    lease.state = 0; // Active
    lease.termStartNs = 4000;
    lease.termLengthNs = 10000;
    view.leases.push_back(lease);

    ScratchDir dir("leaseos_replay_ckpt_base");
    // A post-boundary slice trace: the lease transitions without ever
    // having a lease_created event in this slice.
    std::string path = writeFile(
        dir, "slice.jsonl",
        line(6000, "lease", "to_inactive", 10000, 2, "0") +
            line(7000, "lease", "to_active", 10000, 2, "1"));
    Trace trace = loadTrace(path);
    ASSERT_TRUE(trace.ok()) << trace.error;

    ReplayReport report = validate(trace, view);
    EXPECT_TRUE(report.clean())
        << (report.issues.empty() ? "" : report.issues[0].toString());
    EXPECT_EQ(report.baselineLeases, 1u);
    EXPECT_EQ(report.inferredLeases, 0u); // known from the blob, no guess

    // Without the baseline the same trace counts the lease as inferred.
    ReplayReport bare = validate(trace);
    EXPECT_EQ(bare.inferredLeases, 1u);

    // An event stamped before the blob's boundary cannot belong to this
    // slice: the baseline anchors the replay clock.
    std::string early = writeFile(
        dir, "early.jsonl", line(4000, "lease", "to_inactive", 10000, 2, "0"));
    Trace earlyTrace = loadTrace(early);
    ASSERT_TRUE(earlyTrace.ok());
    ReplayReport earlyReport = validate(earlyTrace, view);
    ASSERT_EQ(earlyReport.issues.size(), 1u);
    EXPECT_EQ(earlyReport.issues[0].check, "time-monotonicity");
}

} // namespace
} // namespace leaseos::tracereplay
