/**
 * @file
 * Golden-output determinism tests for the simulator core.
 *
 * table5_cell_torch_leaseos.json and runner_sweep.json under
 * tests/golden/ were captured with the original std::priority_queue +
 * std::unordered_set EventQueue. The slot-based intrusive-heap queue (and
 * any future core change) must reproduce them byte for byte: one full
 * Table-5 mitigation cell and one multi-spec ParallelRunner sweep,
 * serialised at full precision. resource_services.json was captured
 * with the per-service std::map record tables that the services keep
 * again (an index of the live records stood beside them in between); it
 * covers every resource service with apps that release a kernel object
 * and then request a new one, and pins each service's per-uid totals to
 * the last bit. term_records.json was captured with one
 * proxy class per resource type; it pins, per resource type, how many
 * lease terms ended and a digest over every TermRecord the lease manager
 * published, so every field a proxy measures (not only the ones that move
 * power) must come out bit for bit.
 *
 * Regenerating (only when an *intended* behaviour change lands):
 *
 *     LEASEOS_REGEN_GOLDEN=1 ./build/tests/test_determinism_golden
 *
 * rewrites the files in the source tree; the diff then documents the
 * behaviour change for review.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "apps/buggy/beacon_scanner.h"
#include "apps/buggy/facebook_audio.h"
#include "apps/normal/haven.h"
#include "apps/normal/runkeeper.h"
#include "apps/normal/spotify.h"
#include "apps/registry.h"
#include "harness/experiment.h"
#include "harness/result_sink.h"
#include "harness/runner.h"
#include "lease/behavior.h"
#include "lease/leaseos_runtime.h"
#include "os/system_server.h"
#include "sim/state_digest.h"

#ifndef LEASEOS_TEST_GOLDEN_DIR
#error "LEASEOS_TEST_GOLDEN_DIR must point at tests/golden"
#endif

namespace leaseos::harness {
namespace {

using ResultValue = ResultSink::Value;

/** Serialise every RunResult field at full precision, stable key order. */
ResultSink::Row
resultRow(const RunResult &r)
{
    ResultSink::Row row;
    row.emplace_back("name", ResultValue::str(r.name));
    row.emplace_back("specIndex",
                     ResultValue::count(
                         static_cast<std::int64_t>(r.specIndex)));
    row.emplace_back("seed", ResultValue::count(
                                 static_cast<std::int64_t>(r.seed)));
    row.emplace_back("appPowerMw", ResultValue::num(r.appPowerMw, 9));
    row.emplace_back("systemPowerMw",
                     ResultValue::num(r.systemPowerMw, 9));
    for (std::size_t i = 0; i < r.perAppPowerMw.size(); ++i)
        row.emplace_back("app" + std::to_string(i) + "PowerMw",
                         ResultValue::num(r.perAppPowerMw[i], 9));
    row.emplace_back("deferrals",
                     ResultValue::count(
                         static_cast<std::int64_t>(r.deferrals)));
    row.emplace_back("termChecks",
                     ResultValue::count(
                         static_cast<std::int64_t>(r.termChecks)));
    row.emplace_back("leasesCreated",
                     ResultValue::count(
                         static_cast<std::int64_t>(r.leasesCreated)));
    for (const auto &[behavior, count] : r.behaviorCounts)
        row.emplace_back(std::string("behavior") +
                             lease::behaviorName(behavior),
                         ResultValue::count(
                             static_cast<std::int64_t>(count)));
    for (const auto &[name, value] : r.probes)
        row.emplace_back("probe:" + name, ResultValue::num(value, 9));
    return row;
}

/** A double's exact bits, as a C99 hex-float literal. */
std::string
hexFloat(double value)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%a", value);
    return buf;
}

/**
 * Probe every resource service's per-uid totals for the app installed at
 * @p index, so a change in what the services accumulate shows up even
 * where it does not move the power figures.
 */
void
addServiceProbes(RunSpec &spec, std::size_t index)
{
    using Probe = std::function<double(os::SystemServer &, Uid)>;
    const std::pair<const char *, Probe> probes[] = {
        {"power.heldSeconds",
         [](os::SystemServer &s, Uid u) {
             return s.powerManager().heldSeconds(u);
         }},
        {"power.enabledSeconds",
         [](os::SystemServer &s, Uid u) {
             return s.powerManager().enabledSeconds(u);
         }},
        {"power.releases",
         [](os::SystemServer &s, Uid u) {
             return double(s.powerManager().releaseCount(u));
         }},
        {"location.requestSeconds",
         [](os::SystemServer &s, Uid u) {
             return s.locationManager().requestSeconds(u);
         }},
        {"location.noFixSeconds",
         [](os::SystemServer &s, Uid u) {
             return s.locationManager().noFixSeconds(u);
         }},
        {"location.fixes",
         [](os::SystemServer &s, Uid u) {
             return double(s.locationManager().fixCount(u));
         }},
        {"location.requests",
         [](os::SystemServer &s, Uid u) {
             return double(s.locationManager().requestCount(u));
         }},
        {"location.distanceMeters",
         [](os::SystemServer &s, Uid u) {
             return s.locationManager().distanceMeters(u);
         }},
        {"location.activeRequests",
         [](os::SystemServer &s, Uid u) {
             return double(s.locationManager().activeRequests(u).size());
         }},
        {"sensor.registeredSeconds",
         [](os::SystemServer &s, Uid u) {
             return s.sensorManager().registeredSeconds(u);
         }},
        {"sensor.events",
         [](os::SystemServer &s, Uid u) {
             return double(s.sensorManager().eventCount(u));
         }},
        {"wifi.heldSeconds",
         [](os::SystemServer &s, Uid u) {
             return s.wifiManager().heldSeconds(u);
         }},
        {"wifi.enabledSeconds",
         [](os::SystemServer &s, Uid u) {
             return s.wifiManager().enabledSeconds(u);
         }},
        {"wifi.acquires",
         [](os::SystemServer &s, Uid u) {
             return double(s.wifiManager().acquireCount(u));
         }},
        {"audio.openSeconds",
         [](os::SystemServer &s, Uid u) {
             return s.audioSessions().openSeconds(u);
         }},
        {"audio.playingSeconds",
         [](os::SystemServer &s, Uid u) {
             return s.audioSessions().playingSeconds(u);
         }},
        {"bluetooth.scanSeconds",
         [](os::SystemServer &s, Uid u) {
             return s.bluetoothService().scanSeconds(u);
         }},
        {"bluetooth.discoveries",
         [](os::SystemServer &s, Uid u) {
             return double(s.bluetoothService().discoveries(u));
         }},
    };
    for (const auto &[name, probe] : probes) {
        spec.withProbe("app" + std::to_string(index) + "." + name,
                       [index, probe = probe](Device &d) {
                           return probe(d.server(),
                                        d.apps().at(index)->uid());
                       });
    }
}

double
liveTokens(Device &d)
{
    return double(d.server().tokens().liveCount());
}

/** resultRow() plus the exact bits of every double it rounds. */
ResultSink::Row
exactResultRow(const RunResult &r)
{
    ResultSink::Row row = resultRow(r);
    row.emplace_back("appPowerBits", ResultValue::str(hexFloat(r.appPowerMw)));
    row.emplace_back("systemPowerBits",
                     ResultValue::str(hexFloat(r.systemPowerMw)));
    for (const auto &[name, value] : r.probes)
        row.emplace_back("bits:" + name, ResultValue::str(hexFloat(value)));
    return row;
}

/** Every TermRecord one run published, as raw bytes per resource type. */
struct TermLog {
    std::map<lease::ResourceType, std::vector<std::uint8_t>> bytes;
    std::map<lease::ResourceType, std::uint64_t> terms;

    template <typename T>
    static void
    put(std::vector<std::uint8_t> &out, T value)
    {
        std::uint8_t raw[sizeof(T)];
        std::memcpy(raw, &value, sizeof(T));
        out.insert(out.end(), raw, raw + sizeof(T));
    }

    void
    record(const lease::Lease &lease, const lease::TermRecord &rec)
    {
        std::vector<std::uint8_t> &out = bytes[lease.rtype];
        const lease::LeaseStat &s = rec.stat;
        put(out, lease.id);
        put(out, lease.termIndex);
        put(out, s.termStart.nanos());
        put(out, s.termEnd.nanos());
        put(out, s.requestSeconds);
        put(out, s.failedRequestSeconds);
        put(out, s.holdingSeconds);
        put(out, s.usageSeconds);
        put(out, s.utilityScore);
        put(out, s.exceptions);
        put(out, s.uiUpdates);
        put(out, s.interactions);
        put(out, s.distanceMeters);
        put(out, s.acquires);
        put(out, static_cast<std::uint8_t>(s.heldAtTermEnd));
        put(out, static_cast<std::uint8_t>(rec.behavior));
        ++terms[lease.rtype];
    }
};

std::string
goldenPath(const std::string &file)
{
    return std::string(LEASEOS_TEST_GOLDEN_DIR) + "/" + file;
}

/** Compare @p document against the golden file (or regenerate it). */
void
checkAgainstGolden(const std::string &file, const std::string &document)
{
    const std::string path = goldenPath(file);
    if (std::getenv("LEASEOS_REGEN_GOLDEN") != nullptr) {
        std::ofstream out(path, std::ios::binary);
        ASSERT_TRUE(out.good()) << "cannot write " << path;
        out << document;
        GTEST_SKIP() << "regenerated " << path;
    }
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.good())
        << "missing golden file " << path
        << " (run with LEASEOS_REGEN_GOLDEN=1 to create it)";
    std::ostringstream expected;
    expected << in.rdbuf();
    EXPECT_EQ(document, expected.str())
        << "simulation output diverged from the golden capture; if the "
           "change is intentional, regenerate with LEASEOS_REGEN_GOLDEN=1 "
           "and review the diff";
}

TEST(DeterminismGoldenTest, Table5CellByteIdentical)
{
    // One full Table-5 cell: the torch app (screen wakelock, LHB) under
    // LeaseOS — 30 minutes, Pixel XL, 100 ms sampling, user glances.
    MitigationRunOptions opt;
    RunSpec spec = mitigationCellSpec(apps::buggySpec("torch"),
                                      MitigationMode::LeaseOS, opt);
    RunResult result = runScenario(spec);

    JsonSink json;
    json.begin("golden_table5_cell",
               "torch x LeaseOS, 30 min Pixel XL, seed 0x1ea5e05");
    json.addRow(resultRow(result));
    json.finish();
    checkAgainstGolden("table5_cell_torch_leaseos.json", json.document());
}

TEST(DeterminismGoldenTest, RunnerSweepByteIdentical)
{
    // A small ParallelRunner sweep: three apps x two modes with derived
    // seeds, run on several workers. Exercises the queue across Devices.
    const MitigationMode modes[] = {MitigationMode::None,
                                    MitigationMode::LeaseOS};
    MitigationRunOptions opt;
    opt.duration = sim::Time::fromMinutes(10.0);

    std::vector<RunSpec> specs;
    for (const char *key : {"k9", "gpslogger", "kontalk"})
        for (MitigationMode mode : modes)
            specs.push_back(
                mitigationCellSpec(apps::buggySpec(key), mode, opt));

    RunnerOptions options;
    options.jobs = 4;
    options.baseSeed = 0x601dca5cULL;
    ParallelRunner runner(options);
    auto results = runner.run(specs);

    JsonSink json;
    json.begin("golden_runner_sweep",
               "k9/gpslogger/kontalk x none/leaseos, 10 min, jobs=4");
    for (const auto &r : results) json.addRow(resultRow(r));
    json.finish();
    checkAgainstGolden("runner_sweep.json", json.document());
}

TEST(DeterminismGoldenTest, ResourceServicesByteIdentical)
{
    // Six virtual hours of the apps that churn kernel objects (GPS
    // request/remove without destroy, sensor and Wi-Fi lock cycles, a
    // CPU wakelock) plus one device holding an audio session and a
    // Bluetooth scan, each under vanilla and LeaseOS. The six apps also
    // run under Doze*, DefDroid and the one-shot throttle.
    const MitigationMode modes[] = {MitigationMode::None,
                                    MitigationMode::LeaseOS};
    const sim::Time sixHours = sim::Time::fromHours(6.0);
    MitigationRunOptions opt;
    opt.duration = sixHours;

    std::vector<RunSpec> specs;
    for (const char *key : {"where", "betterweather", "mozstumbler", "riot",
                            "connectbot-wifi", "k9"}) {
        for (MitigationMode mode : modes) {
            RunSpec spec =
                mitigationCellSpec(apps::buggySpec(key), mode, opt);
            addServiceProbes(spec, 0);
            spec.withProbe("liveTokens", liveTokens);
            specs.push_back(std::move(spec));
        }
    }
    for (MitigationMode mode : modes) {
        RunSpec spec;
        spec.withName(std::string("Facebook(audio)+BeaconScanner / ") +
                      mitigationModeName(mode))
            .withConfig(DeviceConfig{}.withMode(mode))
            .withDuration(sixHours)
            .withApp<apps::FacebookAudio>()
            .withApp<apps::BeaconScanner>();
        spec.userGlances = true;
        addServiceProbes(spec, 0);
        addServiceProbes(spec, 1);
        spec.withProbe("liveTokens", liveTokens);
        specs.push_back(std::move(spec));
    }
    // The baselines that suspend, restore and filter through the services,
    // appended so the specs above keep their indices and derived seeds.
    for (const char *key : {"where", "betterweather", "mozstumbler", "riot",
                            "connectbot-wifi", "k9"}) {
        for (MitigationMode mode :
             {MitigationMode::DozeAggressive, MitigationMode::DefDroid,
              MitigationMode::OneShotThrottle}) {
            RunSpec spec =
                mitigationCellSpec(apps::buggySpec(key), mode, opt);
            addServiceProbes(spec, 0);
            spec.withProbe("liveTokens", liveTokens);
            specs.push_back(std::move(spec));
        }
    }

    RunnerOptions options;
    options.jobs = 4;
    options.baseSeed = 0x5e71ce5ULL;
    ParallelRunner runner(options);
    auto results = runner.run(specs);

    JsonSink json;
    json.begin("golden_resource_services",
               "where/betterweather/mozstumbler/riot/connectbot-wifi/k9 "
               "and facebook-audio+beacon-scanner x none/leaseos, 6 h, "
               "jobs=4");
    for (const auto &r : results) json.addRow(exactResultRow(r));
    json.finish();
    checkAgainstGolden("resource_services.json", json.document());
}

TEST(DeterminismGoldenTest, TermRecordsByteIdentical)
{
    // Two virtual hours under LeaseOS, with DVFS off and on: every
    // Table-5 app with its trigger, one device holding an audio session
    // and a Bluetooth scan, and one moving device running the §7.4
    // background apps. Together they end terms on all seven resources.
    const sim::Time twoHours = sim::Time::fromHours(2.0);
    MitigationRunOptions opt;
    opt.duration = twoHours;

    std::vector<RunSpec> specs;
    for (bool dvfs : {false, true}) {
        const DeviceConfig config =
            DeviceConfig{}.withMode(MitigationMode::LeaseOS).withDvfs(dvfs);
        for (const apps::BuggyAppSpec &app : apps::table5Specs()) {
            RunSpec spec =
                mitigationCellSpec(app, MitigationMode::LeaseOS, opt);
            spec.config.withDvfs(dvfs);
            specs.push_back(std::move(spec));
        }
        RunSpec glanced = RunSpec{}
                              .withName("Facebook(audio)+BeaconScanner")
                              .withConfig(config)
                              .withDuration(twoHours)
                              .withApp<apps::FacebookAudio>()
                              .withApp<apps::BeaconScanner>();
        glanced.userGlances = true;
        specs.push_back(std::move(glanced));
        specs.push_back(RunSpec{}
                            .withName("RunKeeper+Spotify+Haven")
                            .withConfig(config)
                            .withDuration(twoHours)
                            .withSetup([](Device &d) {
                                d.gpsEnv().setVelocity(2.5, 0.5);
                                d.motion().setStationary(false);
                            })
                            .withApp<apps::RunKeeper>()
                            .withApp<apps::Spotify>()
                            .withApp<apps::Haven>());
    }
    std::vector<TermLog> logs(specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        specs[i].withSetup([log = &logs[i]](Device &d) {
            d.leaseos()->manager().setTermObserver(
                [log](const lease::Lease &lease,
                      const lease::TermRecord &rec) {
                    log->record(lease, rec);
                });
        });
    }

    RunnerOptions options;
    options.jobs = 4;
    options.baseSeed = 0x7e53ec0dULL;
    ParallelRunner runner(options);
    runner.run(specs);

    JsonSink json;
    json.begin("golden_term_records",
               "20 Table-5 apps, facebook-audio+beacon-scanner and "
               "runkeeper+spotify+haven x dvfs off/on under LeaseOS, 2 h, "
               "jobs=4");
    const lease::ResourceType types[] = {
        lease::ResourceType::Wakelock, lease::ResourceType::Screen,
        lease::ResourceType::Gps,      lease::ResourceType::Sensor,
        lease::ResourceType::Wifi,     lease::ResourceType::Audio,
        lease::ResourceType::Bluetooth};
    for (lease::ResourceType rtype : types) {
        std::vector<std::uint8_t> bytes;
        std::uint64_t terms = 0;
        for (const TermLog &log : logs) {
            auto it = log.bytes.find(rtype);
            if (it == log.bytes.end()) continue;
            bytes.insert(bytes.end(), it->second.begin(), it->second.end());
            terms += log.terms.at(rtype);
        }
        sim::StateDigest fnv;
        fnv.bytes(bytes.data(), bytes.size());
        char digest[32];
        std::snprintf(digest, sizeof(digest), "0x%016llx",
                      static_cast<unsigned long long>(fnv.value()));
        ResultSink::Row row;
        row.emplace_back("resource",
                         ResultValue::str(lease::resourceTypeName(rtype)));
        row.emplace_back("terms", ResultValue::count(
                                      static_cast<std::int64_t>(terms)));
        row.emplace_back("digest", ResultValue::str(digest));
        json.addRow(row);
    }
    json.finish();
    checkAgainstGolden("term_records.json", json.document());
}

} // namespace
} // namespace leaseos::harness
