#include "bench.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <numeric>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include <sys/resource.h>

#include "analysis/invariants.h"
#include "apps/registry.h"
#include "harness/experiment.h"
#include "harness/scenario_session.h"
#include "os/resource_listener.h"
#include "workloads.h"

#ifdef LEASEBENCH_COUNT_ALLOCS
#include "support/alloc_counter.h"
#endif

namespace leasebench {

using namespace leaseos;

namespace {

std::int64_t
nowNs()
{
    auto now = std::chrono::steady_clock::now().time_since_epoch();
    return std::chrono::duration_cast<std::chrono::nanoseconds>(now).count();
}

std::uint64_t
allocCount()
{
#ifdef LEASEBENCH_COUNT_ALLOCS
    return benchsupport::allocCount();
#else
    return 0;
#endif
}

// ---- Digest of simulated outputs ------------------------------------------

std::uint64_t
mix64(std::uint64_t z)
{
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/** FNV-1a 64 over 8-byte words. */
struct Fnv {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    void
    word(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ULL;
        }
    }
    void
    real(double v)
    {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof bits);
        word(bits);
    }
};

/** Everything a run simulated: power bits, events, lease counters. */
std::uint64_t
runDigest(const harness::RunResult &r, std::uint64_t events)
{
    Fnv d;
    d.real(r.appPowerMw);
    d.real(r.systemPowerMw);
    for (double mw : r.perAppPowerMw) d.real(mw);
    d.word(events);
    d.word(r.leasesCreated);
    d.word(r.termChecks);
    d.word(r.deferrals);
    for (const auto &[behavior, n] : r.behaviorCounts) {
        d.word(static_cast<std::uint64_t>(behavior));
        d.word(n);
    }
    return d.h;
}

// ---- Traced-run state -------------------------------------------------------

enum SpanKind : std::uint8_t {
    kRunSpan,
    kSetupSpan,
    kSliceSpan,
    kProbeSimSpan,
    kProbePowerSpan,
    kProbeOsSpan,
    kFinishSpan,
    kSpanKinds
};

const char *const kSpanNames[kSpanKinds] = {
    "run", "setup", "slice", "probe.sim", "probe.power", "probe.os",
    "finish"};

/** One span. Every span but "run" has the run span (id 0) as parent;
 *  spans of one device run share its run index. */
struct Span {
    std::uint32_t run = 0;
    std::uint32_t id = 0;
    SpanKind kind = kRunSpan;
    std::int64_t start = 0;
    std::int64_t end = 0;
};

/** Spans kept for the span file per worker; totals count all of them. */
constexpr std::size_t kMaxSpansPerWorker = 50000;

/** What one worker's traced runs recorded; merged after the phase. */
struct TraceState {
    std::vector<Span> spans;
    std::array<std::int64_t, kSpanKinds> spanNs{};
    std::array<std::uint64_t, kSpanKinds> spanCount{};

    std::uint64_t boundaries = 0;
    double queueDepthSum = 0.0;
    std::uint64_t liveTokensMax = 0;
    std::uint64_t leaseTableMax = 0;
    std::array<std::uint64_t, 4> liveTokensByQuarter{};
    std::array<std::uint64_t, 4> leaseTableByQuarter{};
    std::uint64_t lifecycleCalls = 0;
    std::uint64_t watchedUidsMax = 0;
    std::vector<double> scheduleCancelNs;
    std::vector<double> uidEnergyNs;
    std::vector<double> locationScanNs;
    /** Keeps the probes' reads observable. */
    double sink = 0.0;

    void
    span(SpanKind kind, std::uint32_t run, std::uint32_t id,
         std::int64_t start, std::int64_t end)
    {
        spanNs[kind] += end - start;
        ++spanCount[kind];
        if (spans.size() < kMaxSpansPerWorker)
            spans.push_back({run, id, kind, start, end});
    }

    void
    merge(TraceState &o)
    {
        spans.insert(spans.end(), o.spans.begin(), o.spans.end());
        for (int k = 0; k < kSpanKinds; ++k) {
            spanNs[k] += o.spanNs[k];
            spanCount[k] += o.spanCount[k];
        }
        boundaries += o.boundaries;
        queueDepthSum += o.queueDepthSum;
        liveTokensMax = std::max(liveTokensMax, o.liveTokensMax);
        leaseTableMax = std::max(leaseTableMax, o.leaseTableMax);
        for (int q = 0; q < 4; ++q) {
            liveTokensByQuarter[q] =
                std::max(liveTokensByQuarter[q], o.liveTokensByQuarter[q]);
            leaseTableByQuarter[q] =
                std::max(leaseTableByQuarter[q], o.leaseTableByQuarter[q]);
        }
        lifecycleCalls += o.lifecycleCalls;
        watchedUidsMax = std::max(watchedUidsMax, o.watchedUidsMax);
        auto append = [](std::vector<double> &to, std::vector<double> &from) {
            to.insert(to.end(), from.begin(), from.end());
        };
        append(scheduleCancelNs, o.scheduleCancelNs);
        append(uidEnergyNs, o.uidEnergyNs);
        append(locationScanNs, o.locationScanNs);
        sink += o.sink;
    }
};

/** Counts lifecycle callbacks of every resource service it is added to. */
class LifecycleCounter : public os::ResourceListener
{
  public:
    void
    attach(os::SystemServer &server)
    {
        server.powerManager().addListener(this);
        server.locationManager().addListener(this);
        server.sensorManager().addListener(this);
        server.wifiManager().addListener(this);
        server.audioSessions().addListener(this);
        server.bluetoothService().addListener(this);
    }

    void onCreated(os::TokenId, Uid) override { ++calls; }
    void onAcquired(os::TokenId, Uid) override { ++calls; }
    void onReleased(os::TokenId, Uid) override { ++calls; }
    void onDestroyed(os::TokenId, Uid) override { ++calls; }

    std::uint64_t calls = 0;
};

// ---- One device run ---------------------------------------------------------

struct RunOutcome {
    bool ok = false;
    std::string error;
    std::int64_t setupNs = 0;
    std::int64_t hostNs = 0;
    std::array<std::int64_t, 4> quarterNs{};
    std::array<std::uint64_t, 4> quarterEvents{};
    std::uint64_t events = 0;
    std::uint64_t samples = 0;
    std::uint64_t digest = 0;
    double appMw = 0.0;
    double systemMw = 0.0;
    std::uint64_t created = 0;
    std::uint64_t termChecks = 0;
    std::uint64_t deferrals = 0;
};

bool
validPower(double mw)
{
    return std::isfinite(mw) && mw >= 0.0;
}

/** Audit the finished device, collect its result, and check it. */
void
finishRun(harness::ScenarioSession &session, harness::Device &device,
          RunOutcome &out)
{
    analysis::InvariantOracle oracle(
        analysis::InvariantOracle::FailMode::Record);
    device.auditInvariants(oracle);
    out.events = device.simulator().executedEvents();
    out.samples = device.profiler().totalSeries().size();
    harness::RunResult r = session.finish(); // destroys the device
    out.digest = runDigest(r, out.events);
    out.appMw = r.appPowerMw;
    out.systemMw = r.systemPowerMw;
    out.created = r.leasesCreated;
    out.termChecks = r.termChecks;
    out.deferrals = r.deferrals;
    bool powerOk = validPower(r.appPowerMw) && validPower(r.systemPowerMw);
    for (double mw : r.perAppPowerMw) powerOk = powerOk && validPower(mw);
    if (!oracle.clean())
        out.error = oracle.violations().front().toString();
    else if (!powerOk)
        out.error = "non-finite or negative power";
    else
        out.ok = true;
}

/** Read-only probes at one slice boundary, plus one schedule+cancel. */
void
probe(harness::Device &d, TraceState &ts, std::uint32_t run,
      std::uint32_t &id, int quarter)
{
    sim::Simulator &sim = d.simulator();
    ++ts.boundaries;
    ts.queueDepthSum += static_cast<double>(sim.pendingEvents());
    std::uint64_t tokens = d.server().tokens().liveCount();
    ts.liveTokensMax = std::max(ts.liveTokensMax, tokens);
    ts.liveTokensByQuarter[quarter] =
        std::max(ts.liveTokensByQuarter[quarter], tokens);
    if (lease::LeaseOsRuntime *rt = d.leaseos()) {
        std::uint64_t leases = rt->manager().table().size();
        ts.leaseTableMax = std::max(ts.leaseTableMax, leases);
        ts.leaseTableByQuarter[quarter] =
            std::max(ts.leaseTableByQuarter[quarter], leases);
    }
    ts.watchedUidsMax = std::max<std::uint64_t>(ts.watchedUidsMax,
                                                d.apps().size());

    const std::int64_t a = nowNs();
    sim::EventId ev = sim.schedule(sim::Time::fromSeconds(1.0), [] {});
    sim.cancel(ev);
    const std::int64_t b = nowNs();
    double energy = 0.0;
    for (const auto &app : d.apps())
        energy += d.accountant().uidEnergyMj(app->uid());
    const std::int64_t c = nowNs();
    std::size_t requests = 0;
    for (const auto &app : d.apps())
        requests += d.server().locationManager().activeRequests(app->uid())
                        .size();
    const std::int64_t e = nowNs();

    ts.sink += energy + static_cast<double>(requests);
    ts.scheduleCancelNs.push_back(static_cast<double>(b - a));
    ts.uidEnergyNs.push_back(static_cast<double>(c - b));
    ts.locationScanNs.push_back(static_cast<double>(e - c));
    ts.span(kProbeSimSpan, run, ++id, a, b);
    ts.span(kProbePowerSpan, run, ++id, b, c);
    ts.span(kProbeOsSpan, run, ++id, c, e);
}

/**
 * One device run. Untraced (@p ts null), it advances to the end of each
 * quarter of the horizon in one step. Traced, it advances in the
 * workload's slices, probes at every slice boundary and records spans.
 * Either way it times the quarters; cost_growth reads untraced ones only.
 */
RunOutcome
runDevice(const Workload &w, std::uint64_t seed, std::size_t k,
          TraceState *ts)
{
    RunOutcome out;
    harness::RunSpec spec = w.spec(k, seed);
    harness::Device *device = nullptr;
    LifecycleCounter lifecycle;
    spec.setup.insert(spec.setup.begin(), [&](harness::Device &d) {
        device = &d;
        if (ts) lifecycle.attach(d.server());
    });
    const auto run = static_cast<std::uint32_t>(k);
    std::uint32_t id = 0;
    auto span = [&](SpanKind kind, std::int64_t start, std::int64_t end) {
        if (ts) ts->span(kind, run, kind == kRunSpan ? 0 : ++id, start, end);
    };
    const std::int64_t t0 = nowNs();
    try {
        harness::ScenarioSession session(spec, spec.config);
        std::int64_t last = nowNs();
        out.setupNs = last - t0;
        span(kSetupSpan, t0, last);
        const std::int64_t h = w.horizon.nanos();
        const std::int64_t step = ts ? w.slice.nanos() : (h + 3) / 4;
        std::uint64_t lastEvents = device->simulator().executedEvents();
        int q = 0; // the quarter being timed
        for (std::int64_t target = 0; target < h;) {
            target = std::min(target + step, h);
            const std::int64_t s0 = nowNs();
            session.advanceTo(sim::Time::fromNanos(target));
            const std::int64_t s1 = nowNs();
            span(kSliceSpan, s0, s1);
            for (; q < 4 && target * 4 >= (q + 1) * h; ++q) {
                std::uint64_t e = device->simulator().executedEvents();
                out.quarterNs[q] = s1 - last;
                out.quarterEvents[q] = e - lastEvents;
                last = s1;
                lastEvents = e;
            }
            if (ts) {
                int quarter = static_cast<int>((target * 4 - 1) / h);
                probe(*device, *ts, run, id, quarter);
            }
        }
        const std::int64_t f0 = nowNs();
        finishRun(session, *device, out);
        span(kFinishSpan, f0, nowNs());
        if (ts) ts->lifecycleCalls += lifecycle.calls;
    } catch (const std::exception &e) {
        out.ok = false;
        out.error = e.what();
    }
    const std::int64_t t1 = nowNs();
    out.hostNs = t1 - t0;
    span(kRunSpan, t0, t1);
    return out;
}

// ---- One measured phase: the workload repeated until the budget is spent --

/** One pass over the workload's runs. */
struct RoundAgg {
    std::int64_t setupNs = 0;
    std::int64_t hostNs = 0;
    std::uint64_t events = 0;
    /** Order-independent sum of mixed per-run digests. */
    std::uint64_t digest = 0;
};

struct Phase {
    std::size_t attempted = 0;
    std::int64_t wallNs = 0;
    std::uint64_t allocs = 0;
    double deviceHours = 0.0;
    std::uint64_t events = 0;
    std::uint64_t samples = 0;
    std::int64_t hostNsSum = 0;
    std::vector<RoundAgg> rounds;
    /** Host ms of every run, by position in the round (the cell). */
    std::vector<std::vector<double>> cellHostMs;
    /** Per (round, group): bit m set when mode m's run succeeded. */
    std::vector<std::uint32_t> groupOk;
    std::array<std::int64_t, 4> quarterNs{};
    std::array<std::uint64_t, 4> quarterEvents{};
    std::vector<std::int64_t> modeHostNs;
    std::vector<std::int64_t> groupHostNs;
    std::vector<std::size_t> groupRuns;
    /** LeaseOS runs only. */
    std::size_t leaseRuns = 0;
    double leaseHours = 0.0;
    std::uint64_t created = 0;
    std::uint64_t termChecks = 0;
    std::uint64_t deferrals = 0;
    /** Round 0's powers, by run index. */
    std::vector<double> round0AppMw;
    std::vector<double> round0SystemMw;
    std::vector<std::string> errors;
    TraceState trace;

    void
    add(const Workload &w, std::size_t k, const RunOutcome &out)
    {
        const std::size_t round = w.round(k);
        const std::size_t group = w.group(k);
        const std::size_t mode = w.modeIndex(k);
        const std::size_t perRound = w.runsPerRound();
        if (rounds.size() <= round) {
            rounds.resize(round + 1);
            groupOk.resize((round + 1) * w.groups, 0);
        }
        RoundAgg &r = rounds[round];
        r.setupNs += out.setupNs;
        r.hostNs += out.hostNs;
        cellHostMs[k % perRound].push_back(
            static_cast<double>(out.hostNs) / 1e6);
        hostNsSum += out.hostNs;
        modeHostNs[mode] += out.hostNs;
        groupHostNs[group] += out.hostNs;
        ++groupRuns[group];
        if (!out.ok) {
            if (errors.size() < 5) errors.push_back(out.error);
            return;
        }
        groupOk[round * w.groups + group] |= 1u << mode;
        r.digest += mix64(out.digest ^ mix64(k % perRound));
        r.events += out.events;
        deviceHours += w.horizon.hours();
        events += out.events;
        samples += out.samples;
        for (int q = 0; q < 4; ++q) {
            quarterNs[q] += out.quarterNs[q];
            quarterEvents[q] += out.quarterEvents[q];
        }
        if (w.modes[mode] == MitigationMode::LeaseOS) {
            ++leaseRuns;
            leaseHours += w.horizon.hours();
            created += out.created;
            termChecks += out.termChecks;
            deferrals += out.deferrals;
        }
        if (round == 0) {
            round0AppMw[k] = out.appMw;
            round0SystemMw[k] = out.systemMw;
        }
    }

    /** Failed runs: every run of a group where any mode failed (a run
     *  whose vanilla/LeaseOS partner is missing fails with it). */
    std::size_t
    failed(const Workload &w) const
    {
        const std::uint32_t all = (1u << w.modes.size()) - 1;
        std::size_t n = 0;
        for (std::uint32_t mask : groupOk)
            if (mask != all) n += w.modes.size();
        return n;
    }
};

Phase
runPhase(const Workload &w, const Options &o, int workers,
         std::int64_t budgetNs, bool traced)
{
    Phase phase;
    phase.modeHostNs.assign(w.modes.size(), 0);
    phase.groupHostNs.assign(w.groups, 0);
    phase.groupRuns.assign(w.groups, 0);
    phase.cellHostMs.resize(w.runsPerRound());
    phase.round0AppMw.assign(w.runsPerRound(), 0.0);
    phase.round0SystemMw.assign(w.runsPerRound(), 0.0);

    std::mutex mu; // guards next, stopped and phase
    std::size_t next = 0;
    bool stopped = false;
    const std::size_t perRound = w.runsPerRound();
    const std::int64_t start = nowNs();
    const std::int64_t deadline = start + budgetNs;
    const std::uint64_t allocs0 = allocCount();

    // Whole rounds only: a new round starts only while budget remains, so
    // every vanilla run keeps its partners and round digests are complete.
    auto claim = [&]() -> std::optional<std::size_t> {
        std::lock_guard<std::mutex> lock(mu);
        if (stopped) return std::nullopt;
        if (next % perRound == 0 && next > 0 && nowNs() >= deadline) {
            stopped = true;
            return std::nullopt;
        }
        ++phase.attempted;
        return next++;
    };
    auto worker = [&] {
        TraceState local;
        while (std::optional<std::size_t> k = claim()) {
            RunOutcome out =
                runDevice(w, o.seed, *k, traced ? &local : nullptr);
            std::lock_guard<std::mutex> lock(mu);
            phase.add(w, *k, out);
        }
        std::lock_guard<std::mutex> lock(mu);
        phase.trace.merge(local);
    };
    {
        std::vector<std::jthread> pool;
        pool.reserve(static_cast<std::size_t>(workers));
        for (int i = 0; i < workers; ++i) pool.emplace_back(worker);
    }
    phase.wallNs = nowNs() - start;
    phase.allocs = allocCount() - allocs0;
    return phase;
}

// ---- Statistics and output ----------------------------------------------------

double
quantile(std::vector<double> v, double q)
{
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    double pos = q * static_cast<double>(v.size() - 1);
    auto lo = static_cast<std::size_t>(pos);
    if (lo + 1 >= v.size()) return v.back();
    double frac = pos - static_cast<double>(lo);
    return v[lo] + frac * (v[lo + 1] - v[lo]);
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/**
 * Median over rounds of a per-round figure. Host speed on a shared machine
 * dips by 10-15 % for seconds at a time: a figure pooled over all runs
 * takes in every dip, while the median of per-round figures ignores dips
 * that cover fewer than half of the rounds.
 */
template <typename F>
double
medianOverRounds(const Phase &p, F perRound)
{
    std::vector<double> v;
    v.reserve(p.rounds.size());
    for (const RoundAgg &r : p.rounds) v.push_back(perRound(r));
    return quantile(std::move(v), 0.5);
}

double
deviceHoursPerSecond(const Phase &p)
{
    return ratio(p.deviceHours, static_cast<double>(p.wallNs) / 1e9);
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

std::vector<Metric>
endToEndMetrics(const Workload &w, const Phase &p)
{
    // A cell is one (app or seed slot, mode) configuration. Its mean over
    // rounds spreads a host-speed dip over all rounds and moves smoothly
    // when a cell's cost is bimodal across seeds (a per-cell median flips
    // between the modes); the quantiles across cells show which
    // configurations make the slow tail.
    std::vector<double> cellMeans;
    for (const std::vector<double> &ms : p.cellHostMs)
        cellMeans.push_back(
            ratio(std::accumulate(ms.begin(), ms.end(), 0.0),
                  static_cast<double>(ms.size())));
    double q1 = ratio(static_cast<double>(p.quarterNs[0]),
                      static_cast<double>(p.quarterEvents[0]));
    double q4 = ratio(static_cast<double>(p.quarterNs[3]),
                      static_cast<double>(p.quarterEvents[3]));
    double attempted = static_cast<double>(p.attempted);
    return {
        {"device_hours_per_s", deviceHoursPerSecond(p), "device-h/s"},
        {"ns_per_event", medianOverRounds(p, [](const RoundAgg &r) {
             return ratio(static_cast<double>(r.hostNs),
                          static_cast<double>(r.events));
         }),
         "ns"},
        {"device_ms_p50", quantile(cellMeans, 0.5), "ms"},
        {"device_ms_p90", quantile(cellMeans, 0.9), "ms"},
        {"cost_growth", ratio(q4, q1), "ratio"},
        {"peak_rss_mb", peakRssMb(), "MB"},
        {"setup_s", medianOverRounds(p, [](const RoundAgg &r) {
             return static_cast<double>(r.setupNs) / 1e9;
         }),
         "s"},
        {"success_share",
         ratio(attempted - static_cast<double>(p.failed(w)), attempted),
         "share"},
    };
}

/** Host ratio of mode @p mode's runs to the paired vanilla runs. */
double
pairedHostRatio(const Workload &w, const Phase &p, MitigationMode mode)
{
    for (std::size_t m = 1; m < w.modes.size(); ++m)
        if (w.modes[m] == mode)
            return ratio(static_cast<double>(p.modeHostNs[m]),
                         static_cast<double>(p.modeHostNs[0]));
    return 0.0;
}

/**
 * Per-layer metrics: host-time ratios from the plain phase @p plain,
 * probe and counter figures from the sliced phase @p sliced.
 */
std::vector<Metric>
perLayerMetrics(const Workload &w, const Phase &plain, const Phase &sliced,
                int workers)
{
    const TraceState &t = sliced.trace;
    const double hours = sliced.deviceHours;
    const double leaseRuns = static_cast<double>(sliced.leaseRuns);
    std::vector<Metric> m = {
        {"sim.events_per_device_hour",
         ratio(static_cast<double>(sliced.events), hours), "events/h"},
        {"sim.queue_depth_mean",
         ratio(t.queueDepthSum, static_cast<double>(t.boundaries)),
         "events"},
        {"sim.schedule_cancel_ns", quantile(t.scheduleCancelNs, 0.5), "ns"},
        {"power.samples_per_device_hour",
         ratio(static_cast<double>(sliced.samples), hours), "samples/h"},
        {"power.watched_uids", static_cast<double>(t.watchedUidsMax),
         "uids"},
        {"power.uid_energy_ns", quantile(t.uidEnergyNs, 0.5), "ns"},
        {"os.live_tokens_max", static_cast<double>(t.liveTokensMax),
         "tokens"},
        {"os.location_scan_ns", quantile(t.locationScanNs, 0.5), "ns"},
        {"os.lifecycle_calls_per_device_hour",
         ratio(static_cast<double>(t.lifecycleCalls), hours), "calls/h"},
        {"lease.table_max", static_cast<double>(t.leaseTableMax), "leases"},
        {"lease.created",
         ratio(static_cast<double>(sliced.created), leaseRuns), "leases"},
        {"lease.term_checks_per_device_hour",
         ratio(static_cast<double>(sliced.termChecks), sliced.leaseHours),
         "checks/h"},
        {"lease.deferrals",
         ratio(static_cast<double>(sliced.deferrals), leaseRuns),
         "deferrals"},
        {"lease.paired_host_ratio",
         pairedHostRatio(w, plain, MitigationMode::LeaseOS), "ratio"},
        {"mitigation.doze_paired_host_ratio",
         pairedHostRatio(w, plain, MitigationMode::DozeAggressive), "ratio"},
        {"mitigation.defdroid_paired_host_ratio",
         pairedHostRatio(w, plain, MitigationMode::DefDroid), "ratio"},
    };
    for (std::size_t g = 0; g < appCount(); ++g) {
        double ms = 0.0;
        if (w.table5Apps)
            ms = ratio(static_cast<double>(plain.groupHostNs[g]) / 1e6,
                       static_cast<double>(plain.groupRuns[g]));
        m.push_back({"app." + appKey(g) + ".host_ms", ms, "ms"});
    }
    m.push_back({"harness.worker_idle_share",
                 1.0 - ratio(static_cast<double>(plain.hostNsSum),
                             static_cast<double>(workers) *
                                 static_cast<double>(plain.wallNs)),
                 "share"});
    m.push_back({"harness.allocs_per_event",
                 ratio(static_cast<double>(plain.allocs),
                       static_cast<double>(plain.events)),
                 "allocs/event"});
    m.push_back({"trace.overhead",
                 ratio(deviceHoursPerSecond(plain),
                       deviceHoursPerSecond(sliced)),
                 "ratio"});
    return m;
}

/** Round 0's model outputs beside the paper's (report-only). */
void
printFidelity(const Workload &w, const Phase &p)
{
    const auto &specs = apps::table5Specs();
    const std::size_t nm = w.modes.size();
    if (w.name == "table5_30min") {
        std::array<double, 3> sum{};
        for (std::size_t g = 0; g < w.groups; ++g)
            for (std::size_t m = 1; m < nm; ++m)
                sum[m - 1] += harness::reductionPercent(
                    p.round0AppMw[g * nm], p.round0AppMw[g * nm + m]);
        double n = static_cast<double>(w.groups);
        std::printf("fidelity table5 average reduction (round 0): "
                    "LeaseOS %.2f %% (paper 92.62), Doze* %.2f %% "
                    "(paper 69.64), DefDroid %.2f %% (paper 62.04)\n",
                    sum[0] / n, sum[1] / n, sum[2] / n);
    } else if (w.table5Apps) {
        std::map<std::string, std::pair<double, double>> byClass;
        for (std::size_t g = 0; g < w.groups; ++g) {
            for (const std::string &key : {specs[g].behavior,
                                           std::string("fleet")}) {
                byClass[key].first += p.round0AppMw[g * nm];
                byClass[key].second += p.round0AppMw[g * nm + 1];
            }
        }
        std::printf("fidelity fleet LeaseOS reduction, each app under both "
                    "modes with one seed (round 0):");
        for (const auto &[cls, mw] : byClass)
            std::printf(" %s %.2f %%", cls.c_str(),
                        harness::reductionPercent(mw.first, mw.second));
        std::printf("\n");
    } else {
        double vanilla = 0.0;
        double leased = 0.0;
        for (std::size_t g = 0; g < w.groups; ++g) {
            vanilla += p.round0SystemMw[g * nm];
            leased += p.round0SystemMw[g * nm + 1];
        }
        std::printf("fidelity interactive system power (round 0): vanilla "
                    "%.2f mW, LeaseOS %.2f mW, overhead %.3f %% (paper: "
                    "<1 %%)\n",
                    vanilla / static_cast<double>(w.groups),
                    leased / static_cast<double>(w.groups),
                    -harness::reductionPercent(vanilla, leased));
    }
}

void
printSpanTotals(const TraceState &t)
{
    double runNs = static_cast<double>(t.spanNs[kRunSpan]);
    double childNs = 0.0;
    for (int k = kSetupSpan; k < kSpanKinds; ++k)
        childNs += static_cast<double>(t.spanNs[k]);
    std::printf("spans (share of run time):");
    for (int k = kSetupSpan; k < kSpanKinds; ++k)
        std::printf(" %s %.4f", kSpanNames[k],
                    ratio(static_cast<double>(t.spanNs[k]), runNs));
    std::printf(" run.self %.4f\n", ratio(runNs - childNs, runNs));
    std::printf("census by quarter of the horizon: os.live_tokens_max");
    for (std::uint64_t v : t.liveTokensByQuarter)
        std::printf(" %" PRIu64, v);
    std::printf(" lease.table_max");
    for (std::uint64_t v : t.leaseTableByQuarter) std::printf(" %" PRIu64, v);
    std::printf("\n");
}

bool
writeSpans(const std::string &path, const TraceState &t)
{
    std::error_code ec;
    std::filesystem::path p(path);
    if (p.has_parent_path())
        std::filesystem::create_directories(p.parent_path(), ec);
    std::ofstream out(path);
    if (!out) return false;
    for (const Span &s : t.spans) {
        out << "{\"run\":" << s.run << ",\"id\":" << s.id << ",\"parent\":"
            << (s.kind == kRunSpan ? std::string("null") : std::string("0"))
            << ",\"name\":\"" << kSpanNames[s.kind]
            << "\",\"start_ns\":" << s.start << ",\"end_ns\":" << s.end
            << "}\n";
    }
    return static_cast<bool>(out);
}

std::string
hex(std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "0x%016" PRIx64, v);
    return buf;
}

void
printResult(bool correct, std::size_t attempted, std::size_t failed,
            const std::vector<Metric> &metrics)
{
    for (const Metric &m : metrics)
        std::printf("metric %-40s %.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": {",
                correct ? "true" : "false", attempted, failed);
    for (std::size_t i = 0; i < metrics.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name.c_str(),
                    metrics[i].value, metrics[i].unit.c_str());
    std::printf("}}\n");
}

void
printErrors(const Phase &p)
{
    for (const std::string &e : p.errors)
        std::printf("run error: %s\n", e.c_str());
}

} // namespace

int
runBenchmark(const Options &o)
{
    Workload w;
    if (!findWorkload(o.workload, o.smoke, w)) {
        std::fprintf(stderr, "leasebench: unknown workload '%s'\n",
                     o.workload.c_str());
        return 2;
    }
    unsigned hw = std::thread::hardware_concurrency();
    // Fixed pool: as many workers as the host has threads, at most 4.
    const int workers = static_cast<int>(std::clamp<unsigned>(hw, 1, 4));

#ifdef LEASEOS_TRACING
    const bool tracing = true;
#else
    const bool tracing = false;
#endif
#ifdef LEASEOS_CHECKED
    const bool checked = true;
#else
    const bool checked = false;
#endif
    std::printf("host {\"nproc\": %u, \"compiler\": \"%s\", "
                "\"build_type\": \"%s\", \"leaseos_tracing\": %s, "
                "\"leaseos_checked\": %s, \"workers\": %d, "
                "\"base_seed\": %" PRIu64 "}\n",
                hw, LEASEBENCH_COMPILER, LEASEBENCH_BUILD_TYPE,
                tracing ? "true" : "false", checked ? "true" : "false",
                workers, o.seed);
    std::printf("workload %s: %zu runs per round, %.2f virtual h each, "
                "trace %d, %.1f s\n",
                w.name.c_str(), w.runsPerRound(), w.horizon.hours(),
                o.trace ? 1 : 0, o.seconds);
    std::fflush(stdout);

    const auto budget = static_cast<std::int64_t>(o.seconds * 1e9);
    if (!o.trace) {
        Phase p = runPhase(w, o, workers, budget, false);
        std::size_t failed = p.failed(w);
        std::printf("runs %zu in %zu rounds, %.3f s wall; device_ms_p50/p90 "
                    "are quantiles over %zu cells of each cell's mean "
                    "over %zu rounds\n",
                    p.attempted, p.rounds.size(),
                    static_cast<double>(p.wallNs) / 1e9, w.runsPerRound(),
                    p.rounds.size());
        std::printf("sim_digest %s (round 0)\n",
                    hex(p.rounds.front().digest).c_str());
        printFidelity(w, p);
        printErrors(p);
        printResult(failed == 0, p.attempted, failed,
                    endToEndMetrics(w, p));
        return 0;
    }

    Phase plain = runPhase(w, o, workers, budget / 2, false);
    Phase sliced = runPhase(w, o, workers, budget / 2, true);
    std::size_t common = std::min(plain.rounds.size(), sliced.rounds.size());
    std::size_t mismatched = 0;
    for (std::size_t r = 0; r < common; ++r)
        if (plain.rounds[r].digest != sliced.rounds[r].digest) ++mismatched;
    std::printf("runs untraced %zu in %zu rounds, traced %zu in %zu "
                "rounds\n",
                plain.attempted, plain.rounds.size(), sliced.attempted,
                sliced.rounds.size());
    std::printf("sim_digest %s untraced, %s traced (round 0); %zu of %zu "
                "common rounds differ\n",
                hex(plain.rounds.front().digest).c_str(),
                hex(sliced.rounds.front().digest).c_str(), mismatched,
                common);
    printFidelity(w, plain);
    printSpanTotals(sliced.trace);
    if (!o.spanPath.empty()) {
        const auto &counts = sliced.trace.spanCount;
        if (writeSpans(o.spanPath, sliced.trace))
            std::printf("spans %zu of %" PRIu64 " written to %s\n",
                        sliced.trace.spans.size(),
                        std::accumulate(counts.begin(), counts.end(),
                                        std::uint64_t{0}),
                        o.spanPath.c_str());
        else
            std::printf("spans: cannot write %s\n", o.spanPath.c_str());
    }
    printErrors(plain);
    printErrors(sliced);
    std::size_t failed = plain.failed(w) + sliced.failed(w);
    printResult(failed == 0 && mismatched == 0,
                plain.attempted + sliced.attempted, failed,
                perLayerMetrics(w, plain, sliced, workers));
    return 0;
}

} // namespace leasebench
