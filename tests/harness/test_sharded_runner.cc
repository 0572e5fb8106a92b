/**
 * @file
 * Sharded-run equivalence tests (DESIGN.md §11).
 *
 * A sharded run cuts one scenario's timeline into time slices and
 * advances a single ScenarioSession through them on one thread. Its
 * whole contract is "same answer, different stepping": for any slicing
 * the result must be *bit-identical* to the single-shot runScenario() —
 * including the checkpoint digests emitted along the way — because a
 * discrete-event run satisfies run(T1); run(T2) ≡ run(T2). leasebench's
 * traced half probes the device between slices and relies on this.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "apps/registry.h"
#include "harness/experiment.h"
#include "harness/runner.h"
#include "harness/scenario_session.h"

namespace leaseos::harness {
namespace {

using sim::operator""_min;

/** Two Table-5 cells (vanilla + LeaseOS torch), 10 min, 4 checkpoints. */
std::vector<RunSpec>
cellSpecs()
{
    MitigationRunOptions opt;
    opt.duration = 10_min;
    std::vector<RunSpec> specs;
    for (MitigationMode mode :
         {MitigationMode::None, MitigationMode::LeaseOS}) {
        RunSpec spec = mitigationCellSpec(apps::buggySpec("torch"), mode, opt);
        spec.withCheckpoints(sim::Time::fromNanos(opt.duration.nanos() / 4));
        specs.push_back(std::move(spec));
    }
    return specs;
}

/**
 * Advance a fresh session for @p spec under @p config to each cut (a
 * fraction of the duration), then to the end, and collect its result.
 */
RunResult
runInSteps(const RunSpec &spec, const DeviceConfig &config,
           const std::vector<double> &cuts)
{
    ScenarioSession session(spec, config);
    for (double cut : cuts)
        session.advanceTo(sim::Time::fromNanos(static_cast<std::int64_t>(
            cut * static_cast<double>(spec.duration.nanos()))));
    session.advanceTo(spec.duration);
    return session.finish();
}

/** Run @p spec in @p shards equal slices. */
RunResult
runSharded(const RunSpec &spec, const DeviceConfig &config, int shards)
{
    std::vector<double> cuts;
    for (int k = 1; k < shards; ++k)
        cuts.push_back(static_cast<double>(k) / shards);
    return runInSteps(spec, config, cuts);
}

TEST(ShardedRunTest, BitIdenticalToSingleShot)
{
    // 4 slices land every boundary on a checkpoint instant; 3 and 7
    // slices interleave boundaries and checkpoint instants without
    // double-emitting or skipping one.
    for (const RunSpec &spec : cellSpecs()) {
        SCOPED_TRACE(spec.name);
        RunResult expected = runScenario(spec);
        ASSERT_EQ(expected.checkpoints.size(), 4u);
        for (int shards : {1, 3, 4, 7}) {
            SCOPED_TRACE("shards=" + std::to_string(shards));
            EXPECT_EQ(runSharded(spec, spec.config, shards), expected);
        }
    }
}

TEST(ScenarioSessionTest, ResultIndependentOfStepping)
{
    // The torch cells stepped in 3 and in 8 uneven steps (two of them
    // landing exactly on checkpoint instants) must equal the one-step
    // run, checkpoint instants and digests included.
    for (const RunSpec &spec : cellSpecs()) {
        SCOPED_TRACE(spec.name);
        RunResult expected = runScenario(spec);
        ASSERT_EQ(expected.checkpoints.size(), 4u);
        EXPECT_EQ(runInSteps(spec, spec.config, {0.13, 0.58}), expected);
        EXPECT_EQ(runInSteps(spec, spec.config,
                             {0.05, 0.11, 0.25, 0.31, 0.5, 0.77, 0.9}),
                  expected);

        // Saving a checkpoint has no side effect on the simulation.
        RunSpec plain = spec;
        plain.withCheckpoints(sim::Time{});
        RunResult unprobed = runScenario(plain);
        EXPECT_TRUE(unprobed.checkpoints.empty());
        unprobed.checkpoints = expected.checkpoints;
        EXPECT_EQ(unprobed, expected);
    }
}

TEST(ShardedRunTest, MatchesParallelRunnerWithDerivedSeeds)
{
    // A sharded session under the config ParallelRunner derives for spec
    // i (baseSeed reseeding) reproduces that runner's result i, so the
    // half-vanilla/half-LeaseOS device-index pairing in bench_fleet does
    // not depend on how a device's run is stepped.
    std::vector<RunSpec> specs;
    for (int i = 0; i < 6; ++i) {
        MitigationRunOptions opt;
        opt.duration = 2_min;
        specs.push_back(mitigationCellSpec(
            apps::buggySpec("torch"),
            i % 2 == 0 ? MitigationMode::None : MitigationMode::LeaseOS,
            opt));
        specs.back().withName("dev" + std::to_string(i));
    }

    RunnerOptions options;
    options.jobs = 4;
    options.baseSeed = 0x5eedULL;
    std::vector<RunResult> parallel = ParallelRunner(options).run(specs);

    ASSERT_EQ(parallel.size(), specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        SCOPED_TRACE(specs[i].name);
        EXPECT_EQ(parallel[i].name, "dev" + std::to_string(i));
        EXPECT_EQ(parallel[i].specIndex, i);
        EXPECT_EQ(parallel[i].seed, deriveSeed(0x5eedULL, i));

        DeviceConfig config = specs[i].config;
        config.seed = deriveSeed(0x5eedULL, i);
        RunResult sharded = runSharded(specs[i], config, 3);
        sharded.specIndex = i;
        EXPECT_EQ(sharded, parallel[i]);
    }
}

} // namespace
} // namespace leaseos::harness
