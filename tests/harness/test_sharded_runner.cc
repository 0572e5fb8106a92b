/**
 * @file
 * Sharded-run equivalence tests (DESIGN.md §11).
 *
 * A sharded run cuts one scenario's timeline into time slices and
 * advances a single ScenarioSession through them on one thread. Its
 * whole contract is "same answer, different stepping": for any slicing
 * the result must be *bit-identical* to the single-shot runScenario() —
 * including the state digests taken along the way — because a
 * discrete-event run satisfies run(T1); run(T2) ≡ run(T2). leasebench's
 * traced half probes the device between slices and relies on this, and
 * on reads between slices moving no bit either.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "analysis/invariants.h"
#include "apps/registry.h"
#include "harness/experiment.h"
#include "harness/runner.h"
#include "harness/scenario_session.h"
#include "sim/random.h"

namespace leaseos::harness {
namespace {

using sim::operator""_min;

/**
 * One Table-5 app per resource (CPU, screen, Wi-Fi, GPS, sensor), each
 * under vanilla and LeaseOS: 10 min, 4 state digests.
 */
std::vector<RunSpec>
cellSpecs()
{
    MitigationRunOptions opt;
    opt.duration = 10_min;
    std::vector<RunSpec> specs;
    for (const char *app : {"torch", "connectbot-screen", "connectbot-wifi",
                            "betterweather", "tapandturn"}) {
        for (MitigationMode mode :
             {MitigationMode::None, MitigationMode::LeaseOS}) {
            RunSpec spec = mitigationCellSpec(apps::buggySpec(app), mode, opt);
            spec.withCheckpoints(
                sim::Time::fromNanos(opt.duration.nanos() / 4));
            specs.push_back(std::move(spec));
        }
    }
    return specs;
}

/**
 * Advance a fresh session for @p spec to each cut (a fraction of the
 * duration), then to the end, and collect its result.
 */
RunResult
runInSteps(const RunSpec &spec, const std::vector<double> &cuts)
{
    ScenarioSession session(spec, spec.config);
    for (double cut : cuts)
        session.advanceTo(sim::Time::fromNanos(static_cast<std::int64_t>(
            cut * static_cast<double>(spec.duration.nanos()))));
    session.advanceTo(spec.duration);
    return session.finish();
}

/** Run @p spec in @p shards equal slices. */
RunResult
runSharded(const RunSpec &spec, int shards)
{
    std::vector<double> cuts;
    for (int k = 1; k < shards; ++k)
        cuts.push_back(static_cast<double>(k) / shards);
    return runInSteps(spec, cuts);
}

TEST(ShardedRunTest, BitIdenticalToSingleShot)
{
    // 4 slices land every boundary on a digest instant; 3 and 7 slices
    // interleave boundaries and digest instants without double-taking
    // or skipping one.
    for (const RunSpec &spec : cellSpecs()) {
        SCOPED_TRACE(spec.name);
        RunResult expected = runScenario(spec);
        ASSERT_EQ(expected.checkpoints.size(), 4u);
        for (int shards : {1, 3, 4, 7}) {
            SCOPED_TRACE("shards=" + std::to_string(shards));
            EXPECT_EQ(runSharded(spec, shards), expected);
        }
    }
}

TEST(ScenarioSessionTest, ResultIndependentOfStepping)
{
    // Each cell stepped in 3 and in 8 uneven steps (two of them landing
    // exactly on digest instants) must equal the one-step run, digest
    // instants and values included.
    for (const RunSpec &spec : cellSpecs()) {
        SCOPED_TRACE(spec.name);
        RunResult expected = runScenario(spec);
        ASSERT_EQ(expected.checkpoints.size(), 4u);
        EXPECT_EQ(runInSteps(spec, {0.13, 0.58}), expected);
        EXPECT_EQ(runInSteps(spec, {0.05, 0.11, 0.25, 0.31, 0.5, 0.77, 0.9}),
                  expected);

        // Taking a state digest has no side effect on the simulation.
        RunSpec plain = spec;
        plain.withCheckpoints(sim::Time{});
        RunResult unprobed = runScenario(plain);
        EXPECT_TRUE(unprobed.checkpoints.empty());
        unprobed.checkpoints = expected.checkpoints;
        EXPECT_EQ(unprobed, expected);
    }
}

/**
 * Run @p spec, stopping at each of @p stops to read what a caller may
 * read mid-run: the battery drain, each app's energy and average power,
 * and every invariant audit. @p digest gets the device's state digest at
 * the end.
 */
RunResult
runObserved(const RunSpec &spec, const std::vector<sim::Time> &stops,
            std::uint64_t &digest)
{
    RunSpec observed = spec;
    Device *device = nullptr;
    observed.setup.insert(observed.setup.begin(),
                          [&device](Device &d) { device = &d; });
    ScenarioSession session(observed, observed.config);
    for (sim::Time stop : stops) {
        session.advanceTo(stop);
        double read = device->battery().drainedMj();
        for (const auto &app : device->apps())
            read += device->accountant().uidEnergyMj(app->uid()) +
                device->appPowerMw(app->uid());
        EXPECT_TRUE(std::isfinite(read));
        analysis::InvariantOracle oracle(
            analysis::InvariantOracle::FailMode::Record);
        device->auditInvariants(oracle);
        EXPECT_TRUE(oracle.clean());
    }
    session.advanceTo(spec.duration);
    digest = device->stateDigest();
    return session.finish();
}

TEST(ScenarioSessionTest, MidRunReadsMoveNoBit)
{
    // The same Table-5 cell, once straight through and once read at 40
    // seeded random instants: power bits and the final state digest must
    // not depend on who reads the accountant or when.
    MitigationRunOptions opt;
    RunSpec spec = mitigationCellSpec(apps::buggySpec("betterweather"),
                                      MitigationMode::LeaseOS, opt);
    sim::RandomSource rng(0x0b5e);
    std::vector<sim::Time> stops;
    for (int i = 0; i < 40; ++i)
        stops.push_back(rng.uniformTime(sim::Time{}, spec.duration));
    std::sort(stops.begin(), stops.end());

    std::uint64_t plainDigest = 0;
    std::uint64_t readDigest = 0;
    RunResult plain = runObserved(spec, {}, plainDigest);
    RunResult read = runObserved(spec, stops, readDigest);
    EXPECT_EQ(read, plain);
    EXPECT_EQ(read.systemPowerMw, plain.systemPowerMw);
    EXPECT_EQ(readDigest, plainDigest);
}

TEST(ShardedRunTest, MatchesParallelRunnerWithDerivedSeeds)
{
    // A sharded session of spec i, seeded with deriveSeed(base, i),
    // reproduces ParallelRunner's result i, so the half-vanilla/
    // half-LeaseOS device-index pairing in bench_fleet does not depend on
    // how a device's run is stepped.
    std::vector<RunSpec> specs;
    for (int i = 0; i < 6; ++i) {
        MitigationRunOptions opt;
        opt.duration = 2_min;
        opt.seed = deriveSeed(0x5eedULL, static_cast<std::uint64_t>(i));
        specs.push_back(mitigationCellSpec(
            apps::buggySpec("torch"),
            i % 2 == 0 ? MitigationMode::None : MitigationMode::LeaseOS,
            opt));
        specs.back().withName("dev" + std::to_string(i));
    }

    RunnerOptions options;
    options.jobs = 4;
    std::vector<RunResult> parallel = ParallelRunner(options).run(specs);

    ASSERT_EQ(parallel.size(), specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        SCOPED_TRACE(specs[i].name);
        EXPECT_EQ(parallel[i].name, "dev" + std::to_string(i));
        EXPECT_EQ(parallel[i].specIndex, i);
        EXPECT_EQ(parallel[i].seed, deriveSeed(0x5eedULL, i));

        RunResult sharded = runSharded(specs[i], 3);
        sharded.specIndex = i;
        EXPECT_EQ(sharded, parallel[i]);
    }
}

} // namespace
} // namespace leaseos::harness
