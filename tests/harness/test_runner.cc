/**
 * @file
 * Tests for the parallel experiment engine: scenario runs, deterministic
 * seed derivation, ordered collection, and bit-identical results
 * (per-interval state digests included) across worker-pool sizes.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <set>

#include "apps/buggy/k9_mail.h"
#include "apps/buggy/torch.h"
#include "apps/registry.h"
#include "harness/experiment.h"
#include "harness/runner.h"

namespace leaseos::harness {
namespace {

using sim::operator""_s;
using sim::operator""_min;

/** A small mixed workload: cheap cells exercising several modes. */
std::vector<RunSpec>
sampleSpecs()
{
    std::vector<RunSpec> specs;

    specs.push_back(RunSpec{}
                        .withName("torch vanilla")
                        .withConfig(DeviceConfig{}.withMode(
                            MitigationMode::None))
                        .withDuration(5_min)
                        .withApp<apps::Torch>());
    specs.push_back(RunSpec{}
                        .withName("torch leased")
                        .withConfig(DeviceConfig{}
                                        .withMode(MitigationMode::LeaseOS)
                                        .withSeed(7))
                        .withDuration(5_min)
                        .withApp<apps::Torch>()
                        .withProbe("events", [](Device &d) {
                            return static_cast<double>(
                                d.simulator().executedEvents());
                        }));
    RunSpec glanced = RunSpec{}
                          .withName("k9 disconnected doze")
                          .withConfig(DeviceConfig{}.withMode(
                              MitigationMode::DozeAggressive))
                          .withDuration(5_min)
                          .withSetup([](Device &d) {
                              d.network().setConnected(false);
                          })
                          .withApp<apps::K9Mail>();
    glanced.userGlances = true;
    glanced.glanceInterval = 1_min;
    glanced.glanceLength = 5_s;
    specs.push_back(std::move(glanced));
    specs.push_back(RunSpec{}
                        .withName("k9 disconnected leased")
                        .withConfig(DeviceConfig{}
                                        .withMode(MitigationMode::LeaseOS)
                                        .withSeed(99))
                        .withDuration(5_min)
                        .withSetup([](Device &d) {
                            d.network().setConnected(false);
                        })
                        .withApp<apps::K9Mail>());
    return specs;
}

TEST(RunScenarioTest, CollectsPowerAndLeaseMetrics)
{
    RunSpec spec = RunSpec{}
                       .withName("torch")
                       .withConfig(DeviceConfig{}.withMode(
                           MitigationMode::LeaseOS))
                       .withDuration(10_min)
                       .withApp<apps::Torch>();
    RunResult r = runScenario(spec);
    EXPECT_EQ(r.name, "torch");
    EXPECT_GT(r.systemPowerMw, 0.0);
    EXPECT_GT(r.deferrals, 0u);
    EXPECT_GT(r.termChecks, 0u);
    EXPECT_GT(r.leasesCreated, 0u);
    EXPECT_GT(
        r.behaviorCounts.at(lease::BehaviorType::LongHolding), 0u);
    ASSERT_EQ(r.perAppPowerMw.size(), 1u);
    EXPECT_DOUBLE_EQ(r.perAppPowerMw[0], r.appPowerMw);
}

TEST(RunScenarioTest, ProbesReportInSpecOrder)
{
    RunSpec spec = RunSpec{}
                       .withConfig(DeviceConfig{})
                       .withDuration(1_min)
                       .withProbe("b", [](Device &) { return 2.0; })
                       .withProbe("a", [](Device &) { return 1.0; });
    RunResult r = runScenario(spec);
    ASSERT_EQ(r.probes.size(), 2u);
    EXPECT_EQ(r.probes[0].first, "b");
    EXPECT_DOUBLE_EQ(r.probe("a"), 1.0);
    EXPECT_THROW(r.probe("missing"), std::out_of_range);
}

TEST(RunScenarioTest, ChannelEnergyGaugesReadAsOfTheEnd)
{
    // A channel set once, before the run starts: its energy gauge must
    // cover the whole run, not stop at the device's last power change.
    RunSpec spec = RunSpec{}
                       .withDuration(10_min)
                       .withSetup([](Device &d) {
                           auto &acc = d.accountant();
                           acc.setPower(acc.makeChannel("steady"), 100.0,
                                        {kSystemUid});
                       })
                       .withProbe("steady", [](Device &d) {
                           auto &acc = d.accountant();
                           return acc.channelEnergyMj(
                               acc.channelByName("steady"));
                       });
    spec.collectMetrics = true;
    RunResult r = runScenario(spec);
    auto gauge = std::find_if(r.metrics.begin(), r.metrics.end(),
                              [](const auto &metric) {
                                  return metric.first == "power.steady.mj";
                              });
    ASSERT_NE(gauge, r.metrics.end());
    EXPECT_NEAR(gauge->second, 100.0 * 600.0, 1e-6);
    EXPECT_EQ(gauge->second, r.probe("steady"));
}

TEST(RunScenarioTest, LeaseMetricsEqualTheManagersTotals)
{
    // The Table-5 torch cell under LeaseOS: the registry's lease totals
    // and verdict counts must read exactly what the run reports.
    RunSpec spec = mitigationCellSpec(apps::buggySpec("torch"),
                                      MitigationMode::LeaseOS,
                                      MitigationRunOptions{});
    spec.collectMetrics = true;
    spec.withProbe("renewals", [](Device &d) {
        return static_cast<double>(d.leaseos()->manager().totalRenewals());
    });
    RunResult r = runScenario(spec);
    ASSERT_GT(r.deferrals, 0u);
    ASSERT_GT(r.termChecks, 0u);

    auto metric = [&r](const std::string &name) {
        auto it = std::find_if(r.metrics.begin(), r.metrics.end(),
                               [&name](const auto &m) {
                                   return m.first == name;
                               });
        EXPECT_NE(it, r.metrics.end()) << "no metric " << name;
        return it == r.metrics.end() ? -1.0 : it->second;
    };
    EXPECT_EQ(metric("lease.created"),
              static_cast<double>(r.leasesCreated));
    EXPECT_EQ(metric("lease.term_checks"),
              static_cast<double>(r.termChecks));
    EXPECT_EQ(metric("lease.deferrals"), static_cast<double>(r.deferrals));
    EXPECT_EQ(metric("lease.renewals"), r.probe("renewals"));
    for (lease::BehaviorType b :
         {lease::BehaviorType::Normal, lease::BehaviorType::FrequentAsk,
          lease::BehaviorType::LongHolding, lease::BehaviorType::LowUtility,
          lease::BehaviorType::ExcessiveUse}) {
        auto it = r.behaviorCounts.find(b);
        const double want = it == r.behaviorCounts.end()
            ? 0.0
            : static_cast<double>(it->second);
        EXPECT_EQ(metric(std::string("behavior.") + lease::behaviorName(b)),
                  want);
    }
}

TEST(RunScenarioTest, MitigationCellSpecDescribesTheStandardCell)
{
    const auto &spec = apps::buggySpec("torch");
    MitigationRunOptions opt;
    opt.duration = 5_min;
    RunSpec cell = mitigationCellSpec(spec, MitigationMode::LeaseOS, opt);
    EXPECT_EQ(cell.name, std::string(spec.display) + " / LeaseOS");
    EXPECT_EQ(cell.config.mode, MitigationMode::LeaseOS);
    EXPECT_EQ(cell.config.seed, opt.seed);
    EXPECT_EQ(cell.duration, opt.duration);
    ASSERT_EQ(cell.apps.size(), 1u);
    ASSERT_EQ(cell.setup.size(), 1u);
    EXPECT_TRUE(cell.userGlances);
    EXPECT_EQ(cell.glanceInterval, opt.glanceInterval);
    EXPECT_EQ(cell.glanceLength, opt.glanceLength);
    // The spec is executable as-is and yields a plausible cell result.
    RunResult direct = runScenario(cell);
    EXPECT_EQ(direct.name, cell.name);
    EXPECT_GT(direct.leasesCreated, 0u);
}

TEST(ParallelRunnerTest, ResultsIdenticalAcrossJobCounts)
{
    // Per-minute state digests: jobs=1 vs jobs=8 also compares every
    // interval's full state, not only the end-of-run numbers.
    std::vector<RunSpec> specs = sampleSpecs();
    for (RunSpec &spec : specs) spec.withCheckpoints(1_min);

    RunnerOptions one;
    one.jobs = 1;
    RunnerOptions eight;
    eight.jobs = 8;
    ParallelRunner sequential(one);
    ParallelRunner parallel(eight);
    ASSERT_EQ(sequential.jobs(), 1);
    ASSERT_EQ(parallel.jobs(), 8);

    std::vector<RunResult> a = sequential.run(specs);
    std::vector<RunResult> b = parallel.run(specs);

    ASSERT_EQ(a.size(), specs.size());
    ASSERT_EQ(b.size(), specs.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        SCOPED_TRACE(specs[i].name);
        EXPECT_EQ(a[i].specIndex, i);
        EXPECT_EQ(a[i].checkpoints.size(), 5u);
        EXPECT_EQ(a[i], b[i]); // power, counters, digests, ...
    }
    // The workload is not degenerate: different cells disagree.
    EXPECT_NE(a[0].appPowerMw, a[1].appPowerMw);
}

TEST(ParallelRunnerTest, OnResultSeesEveryRunExactlyOnce)
{
    std::vector<RunSpec> specs = sampleSpecs();
    RunnerOptions four;
    four.jobs = 4;
    ParallelRunner runner(four);
    std::set<std::size_t> seen;
    runner.run(specs, [&](const RunResult &r) {
        // Serialised by the runner; no extra locking needed here.
        seen.insert(r.specIndex);
    });
    EXPECT_EQ(seen.size(), specs.size());
}

TEST(ParallelRunnerTest, DerivedSeedsAreDistinctAndDeterministic)
{
    std::set<std::uint64_t> seeds;
    for (std::uint64_t i = 0; i < 1000; ++i)
        seeds.insert(deriveSeed(0x1ea5e05, i));
    EXPECT_EQ(seeds.size(), 1000u);

    EXPECT_EQ(deriveSeed(42, 7), deriveSeed(42, 7));
    EXPECT_NE(deriveSeed(42, 7), deriveSeed(43, 7));
}

TEST(ParallelRunnerTest, BaseSeedOverridesSpecSeeds)
{
    std::vector<RunSpec> specs(2, RunSpec{}
                                      .withConfig(DeviceConfig{})
                                      .withDuration(1_min));
    RunnerOptions options;
    options.jobs = 2;
    options.baseSeed = 123;
    ParallelRunner runner(options);
    auto results = runner.run(specs);
    EXPECT_EQ(results[0].seed, deriveSeed(123, 0));
    EXPECT_EQ(results[1].seed, deriveSeed(123, 1));
    EXPECT_NE(results[0].seed, results[1].seed);
}

TEST(ParallelRunnerTest, HooksAreNotCopiedPerRun)
{
    // The worker loop runs each spec by const ref; the std::function
    // hook vectors must not be cloned per run (they were, when the loop
    // copied whole RunSpecs), even when baseSeed forces a config clone.
    struct CopyTracker {
        std::shared_ptr<int> copies;
        CopyTracker() : copies(std::make_shared<int>(0)) {}
        CopyTracker(const CopyTracker &other) : copies(other.copies)
        {
            ++*copies;
        }
        CopyTracker(CopyTracker &&) = default;
        double operator()(Device &) const { return 0.0; }
    };

    CopyTracker tracker;
    std::shared_ptr<int> copies = tracker.copies;
    std::vector<RunSpec> specs;
    specs.push_back(RunSpec{}
                        .withConfig(DeviceConfig{})
                        .withDuration(1_min)
                        .withProbe("zero", std::move(tracker)));

    RunnerOptions options;
    options.jobs = 1;
    options.baseSeed = 99; // forces the DeviceConfig clone path
    ParallelRunner runner(options);
    int copiesBeforeRun = *copies;
    auto results = runner.run(specs);
    EXPECT_EQ(*copies, copiesBeforeRun);
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0].probe("zero"), 0.0);
}

TEST(ParallelRunnerTest, ParseArgsReadsJobsFlag)
{
    const char *argv1[] = {"bench", "--jobs", "3"};
    EXPECT_EQ(ParallelRunner::parseArgs(
                  3, const_cast<char **>(argv1)).jobs, 3);
    const char *argv2[] = {"bench", "--jobs=5"};
    EXPECT_EQ(ParallelRunner::parseArgs(
                  2, const_cast<char **>(argv2)).jobs, 5);
    const char *argv3[] = {"bench", "-j2"};
    EXPECT_EQ(ParallelRunner::parseArgs(
                  2, const_cast<char **>(argv3)).jobs, 2);
    const char *argv4[] = {"bench"};
    EXPECT_EQ(ParallelRunner::parseArgs(
                  1, const_cast<char **>(argv4)).jobs, 0);
    // Separated short form (regression: used to be silently ignored).
    const char *argv5[] = {"bench", "-j", "7"};
    EXPECT_EQ(ParallelRunner::parseArgs(
                  3, const_cast<char **>(argv5)).jobs, 7);
    // Other flags are left for the bench to interpret.
    const char *argv6[] = {"bench", "--devices=50", "--jobs=4"};
    EXPECT_EQ(ParallelRunner::parseArgs(
                  3, const_cast<char **>(argv6)).jobs, 4);
}

TEST(ParallelRunnerTest, ParseJobsIsStrict)
{
    // Regression: atoi turned "abc" into 0 (= automatic), silently
    // ignoring the user's (mistyped) request.
    EXPECT_EQ(ParallelRunner::parseJobs("3"), 3);
    EXPECT_EQ(ParallelRunner::parseJobs("0"), 0);
    EXPECT_EQ(ParallelRunner::parseJobs("64"), 64);
    EXPECT_FALSE(ParallelRunner::parseJobs("abc").has_value());
    EXPECT_FALSE(ParallelRunner::parseJobs("3abc").has_value());
    EXPECT_FALSE(ParallelRunner::parseJobs("-2").has_value());
    EXPECT_FALSE(ParallelRunner::parseJobs("+2").has_value());
    EXPECT_FALSE(ParallelRunner::parseJobs("").has_value());
    EXPECT_FALSE(ParallelRunner::parseJobs(nullptr).has_value());
    EXPECT_FALSE(ParallelRunner::parseJobs("999999999").has_value());
}

TEST(ParallelRunnerDeathTest, MalformedJobsFlagExitsWithUsage)
{
    const char *garbage[] = {"bench", "--jobs=abc"};
    EXPECT_EXIT(ParallelRunner::parseArgs(2, const_cast<char **>(garbage)),
                ::testing::ExitedWithCode(2), "usage");
    const char *shortGarbage[] = {"bench", "-jxyz"};
    EXPECT_EXIT(
        ParallelRunner::parseArgs(2, const_cast<char **>(shortGarbage)),
        ::testing::ExitedWithCode(2), "usage");
    const char *missing[] = {"bench", "--jobs"};
    EXPECT_EXIT(ParallelRunner::parseArgs(2, const_cast<char **>(missing)),
                ::testing::ExitedWithCode(2), "usage");
}

TEST(GlanceScriptTest, OverlappingGlancesKeepScreenOn)
{
    // Regression: with glanceLength > glanceInterval, glance N's
    // screen-off event fired mid-glance N+1, blanking the screen and
    // parking the user while a glance was still in progress.
    Device device;
    sim::PeriodicHandle glances =
        installGlanceScript(device, /*interval=*/60_s, /*length=*/90_s);
    device.start();
    // Glances start at 60, 120, 180, ...; each lasts 90 s, so from 60 s
    // on the screen must never be user-off again. Glance 1's off event
    // (t=150) lands inside glance 2 and must be ignored.
    device.runFor(155_s);
    EXPECT_TRUE(device.server().displayManager().screenOn())
        << "a stale screen-off event blanked the screen mid-glance";
    EXPECT_FALSE(device.motion().stationary())
        << "a stale off event parked the user mid-glance";
}

TEST(GlanceScriptTest, NonOverlappingGlancesStillEnd)
{
    // The guard must not break the normal case: with length < interval
    // the screen goes off between glances.
    Device device;
    sim::PeriodicHandle glances =
        installGlanceScript(device, /*interval=*/60_s, /*length=*/10_s);
    device.start();
    device.runFor(95_s); // glance 1 span is [60, 70); probe at 95.
    EXPECT_FALSE(device.server().displayManager().screenOn());
    EXPECT_TRUE(device.motion().stationary());
}

TEST(GlanceScriptTest, HandleStopsTheScript)
{
    Device device;
    sim::PeriodicHandle glances = installGlanceScript(device, 60_s, 10_s);
    device.start();
    device.runFor(65_s);
    EXPECT_TRUE(device.server().displayManager().screenOn());
    glances.cancel();
    device.runFor(300_s);
    // No further glances: the screen stays off after glance 1 ended.
    EXPECT_FALSE(device.server().displayManager().screenOn());
}

} // namespace
} // namespace leaseos::harness
