/**
 * @file
 * Whole-device state digest tests (DESIGN.md §11).
 *
 * Device::stateDigest() fingerprints the device's explicit state: equal
 * state must give an equal digest, so two runs of the same Table-5 cell
 * can be compared interval by interval through their digests alone, and
 * a state change inside one interval shows in that interval's digest
 * and no other.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "apps/registry.h"
#include "harness/device.h"
#include "harness/experiment.h"
#include "harness/runner.h"
#include "harness/scenario_session.h"
#include "lease/lease_table.h"

namespace leaseos::harness {
namespace {

using sim::operator""_min;

/** K-9 Mail's Table-5 cell under LeaseOS, run for @p minutes. */
std::uint64_t
k9Digest(double minutes)
{
    const apps::BuggyAppSpec &k9 = apps::buggySpec("k9");
    Device dev(
        DeviceConfig{}.withMode(MitigationMode::LeaseOS).withSeed(0xabc));
    k9.trigger(dev);
    k9.install(dev);
    dev.start();
    dev.runFor(sim::Time::fromMinutes(minutes));
    return dev.stateDigest();
}

TEST(DeviceDigestTest, EqualStateGivesEqualDigest)
{
    std::uint64_t a = k9Digest(10.0);
    EXPECT_EQ(a, k9Digest(10.0))
        << "equal device state must give an equal digest";
    // The digest fingerprints state: a later instant hashes differently.
    EXPECT_NE(a, k9Digest(11.0));
}

/**
 * The torch LeaseOS cell's per-minute digests over three minutes. With
 * @p mutate, one lease's deferral count is raised by one from the first
 * boundary to the second: no simulation logic reads that field, so the
 * run itself is unchanged and only the digest at the second boundary
 * sees it.
 */
std::vector<RunResult::Checkpoint>
torchDigests(bool mutate)
{
    MitigationRunOptions opt;
    opt.duration = 3_min;
    RunSpec spec = mitigationCellSpec(apps::buggySpec("torch"),
                                      MitigationMode::LeaseOS, opt);
    spec.withCheckpoints(1_min);
    Device *device = nullptr;
    spec.withSetup([&device](Device &d) { device = &d; });

    ScenarioSession session(spec, spec.config);
    session.advanceTo(1_min);
    lease::LeaseTable &table = device->leaseos()->manager().table();
    if (table.size() == 0) {
        ADD_FAILURE() << "torch holds no lease at minute 1";
        return {};
    }
    lease::Lease &lease = *table.all().front();
    const lease::LeaseId id = lease.id;
    if (mutate) lease.deferrals += 1;
    session.advanceTo(2_min);
    if (table.find(id) != &lease) {
        ADD_FAILURE() << "lease " << id << " did not outlive minute 2";
        return {};
    }
    if (mutate) lease.deferrals -= 1;
    session.advanceTo(3_min);
    return session.finish().checkpoints;
}

TEST(DeviceDigestTest, LeaseFieldChangeMovesOnlyItsIntervalsDigest)
{
    std::vector<RunResult::Checkpoint> plain = torchDigests(false);
    std::vector<RunResult::Checkpoint> mutated = torchDigests(true);
    ASSERT_EQ(plain.size(), 3u);
    ASSERT_EQ(mutated.size(), 3u);
    for (std::size_t k = 0; k < 3; ++k)
        EXPECT_EQ(mutated[k].timeNanos, plain[k].timeNanos);
    EXPECT_EQ(mutated[0].digest, plain[0].digest);
    EXPECT_NE(mutated[1].digest, plain[1].digest);
    EXPECT_EQ(mutated[2].digest, plain[2].digest);
}

} // namespace
} // namespace leaseos::harness
