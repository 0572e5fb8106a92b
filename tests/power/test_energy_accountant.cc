/**
 * @file
 * Unit tests for the EnergyAccountant's integration and attribution.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/ids.h"
#include "obs/metric_registry.h"
#include "power/energy_accountant.h"
#include "sim/random.h"
#include "sim/simulator.h"
#include "sim/state_digest.h"

namespace leaseos::power {
namespace {

using sim::operator""_s;

constexpr Uid kAppA = kFirstAppUid;
constexpr Uid kAppB = kFirstAppUid + 1;
constexpr Uid kAppC = kFirstAppUid + 2;

TEST(EnergyAccountantTest, IntegratesConstantPower)
{
    sim::Simulator sim;
    EnergyAccountant acc(sim);
    ChannelId ch = acc.makeChannel("cpu");
    acc.setPower(ch, 100.0, {kAppA});
    sim.runFor(10_s);
    EXPECT_DOUBLE_EQ(acc.totalEnergyMj(), 1000.0); // 100 mW * 10 s
    EXPECT_DOUBLE_EQ(acc.uidEnergyMj(kAppA), 1000.0);
}

TEST(EnergyAccountantTest, SplitsAcrossOwners)
{
    sim::Simulator sim;
    EnergyAccountant acc(sim);
    ChannelId ch = acc.makeChannel("gps");
    acc.setPower(ch, 100.0, {kAppA, kAppB});
    sim.runFor(10_s);
    EXPECT_DOUBLE_EQ(acc.uidEnergyMj(kAppA), 500.0);
    EXPECT_DOUBLE_EQ(acc.uidEnergyMj(kAppB), 500.0);
}

TEST(EnergyAccountantTest, EmptyOwnersGoesToSystem)
{
    sim::Simulator sim;
    EnergyAccountant acc(sim);
    ChannelId ch = acc.makeChannel("misc");
    acc.setPower(ch, 50.0, {});
    sim.runFor(2_s);
    EXPECT_DOUBLE_EQ(acc.uidEnergyMj(kSystemUid), 100.0);
}

TEST(EnergyAccountantTest, PowerChangeSplitsInterval)
{
    sim::Simulator sim;
    EnergyAccountant acc(sim);
    ChannelId ch = acc.makeChannel("cpu");
    acc.setPower(ch, 100.0, {kAppA});
    sim.runFor(5_s);
    acc.setPower(ch, 10.0, {kAppA});
    sim.runFor(5_s);
    EXPECT_DOUBLE_EQ(acc.totalEnergyMj(), 550.0);
}

TEST(EnergyAccountantTest, AttributionChangeSplitsInterval)
{
    sim::Simulator sim;
    EnergyAccountant acc(sim);
    ChannelId ch = acc.makeChannel("cpu");
    acc.setPower(ch, 100.0, {kAppA});
    sim.runFor(4_s);
    acc.setPower(ch, 100.0, {kAppB});
    sim.runFor(6_s);
    EXPECT_DOUBLE_EQ(acc.uidEnergyMj(kAppA), 400.0);
    EXPECT_DOUBLE_EQ(acc.uidEnergyMj(kAppB), 600.0);
}

TEST(EnergyAccountantTest, MultipleChannelsSum)
{
    sim::Simulator sim;
    EnergyAccountant acc(sim);
    ChannelId cpu = acc.makeChannel("cpu");
    ChannelId gps = acc.makeChannel("gps");
    acc.setPower(cpu, 30.0, {kAppA});
    acc.setPower(gps, 70.0, {kAppA});
    sim.runFor(1_s);
    EXPECT_DOUBLE_EQ(acc.totalEnergyMj(), 100.0);
    EXPECT_DOUBLE_EQ(acc.channelEnergyMj(cpu), 30.0);
    EXPECT_DOUBLE_EQ(acc.channelEnergyMj(gps), 70.0);
    EXPECT_DOUBLE_EQ(acc.uidChannelEnergyMj(kAppA, gps), 70.0);
}

TEST(EnergyAccountantTest, InstantaneousPower)
{
    sim::Simulator sim;
    EnergyAccountant acc(sim);
    ChannelId ch = acc.makeChannel("cpu");
    acc.setPowerShares(ch, {{kAppA, 20.0}, {kAppB, 5.0}});
    EXPECT_DOUBLE_EQ(acc.totalPowerMw(), 25.0);
    EXPECT_DOUBLE_EQ(acc.uidPowerMw(kAppA), 20.0);
    EXPECT_DOUBLE_EQ(acc.uidPowerMw(kAppB), 5.0);
    EXPECT_DOUBLE_EQ(acc.uidPowerMw(kSystemUid), 0.0);
}

TEST(EnergyAccountantTest, KnownUidsListsContributors)
{
    sim::Simulator sim;
    EnergyAccountant acc(sim);
    ChannelId ch = acc.makeChannel("cpu");
    acc.setPower(ch, 10.0, {kAppA});
    sim.runFor(1_s);
    auto uids = acc.knownUids();
    EXPECT_EQ(uids.size(), 1u);
    EXPECT_EQ(uids[0], kAppA);
}

TEST(EnergyAccountantTest, MidIntervalReadIsExactWithoutSync)
{
    sim::Simulator sim;
    EnergyAccountant acc(sim);
    ChannelId ch = acc.makeChannel("cpu");
    acc.setPower(ch, 100.0, {kAppA});
    // Advance mid-interval with no power-change boundary: every reader
    // adds the pending 100 mW x 3 s.
    sim.runFor(3_s);
    EXPECT_DOUBLE_EQ(acc.totalEnergyMj(), 300.0);
    EXPECT_DOUBLE_EQ(acc.uidEnergyMj(kAppA), 300.0);
    EXPECT_DOUBLE_EQ(acc.channelEnergyMj(ch), 300.0);
    EXPECT_DOUBLE_EQ(acc.uidChannelEnergyMj(kAppA, ch), 300.0);
    // The read committed nothing: the next one covers the whole interval.
    sim.runFor(2_s);
    EXPECT_DOUBLE_EQ(acc.totalEnergyMj(), 500.0);
}

TEST(EnergyAccountantTest, ReadEqualsCommitThenReadToTheBit)
{
    // Drive two accountants through one power sequence up to a read
    // instant. There the second switches both channels off in channel
    // order: each set is a real change, so it commits that channel's
    // pending interval into the stored integrals and leaves nothing
    // pending. Every read of the first must return the bits the second
    // then holds.
    const std::vector<std::pair<Uid, double>> cpuShares = {{kAppA, 0.1},
                                                           {kAppB, 33.3}};
    const std::vector<std::pair<Uid, double>> gpsShares = {{kAppB, 2.9},
                                                           {kAppA, 0.3}};
    for (int readMs : {1, 29, 137, 1000, 4321}) {
        SCOPED_TRACE(readMs);
        sim::Simulator sim;
        EnergyAccountant read(sim);
        EnergyAccountant committed(sim);
        for (EnergyAccountant *acc : {&read, &committed}) {
            acc->makeChannel("cpu");
            acc->makeChannel("gps");
            acc->setPowerShares(0, cpuShares);
            acc->setPower(1, 7.7, {kAppB, kAppA, kAppB});
        }
        sim.runFor(sim::Time::fromMillis(211));
        for (EnergyAccountant *acc : {&read, &committed})
            acc->setPowerShares(1, gpsShares);
        sim.runFor(sim::Time::fromMillis(readMs));
        const std::vector<std::pair<Uid, double>> off;
        committed.setPowerShares(0, off);
        committed.setPowerShares(1, off);
        ASSERT_EQ(committed.totalPowerMw(), 0.0);

        EXPECT_EQ(read.totalEnergyMj(), committed.totalEnergyMj());
        for (ChannelId ch : {0u, 1u})
            EXPECT_EQ(read.channelEnergyMj(ch), committed.channelEnergyMj(ch));
        for (Uid uid : {kAppA, kAppB, kSystemUid}) {
            EXPECT_EQ(read.uidEnergyMj(uid), committed.uidEnergyMj(uid));
            for (ChannelId ch : {0u, 1u})
                EXPECT_EQ(read.uidChannelEnergyMj(uid, ch),
                          committed.uidChannelEnergyMj(uid, ch));
        }
    }
}

/**
 * One power change: the channel's new shares, set through setPowerShares
 * or, when @c viaShares is false, through setPower(totalMw, owners).
 */
struct PowerChange {
    sim::Time at;
    ChannelId ch = 0;
    bool viaShares = false;
    double totalMw = 0.0;
    std::vector<Uid> owners;
    std::vector<std::pair<Uid, double>> shares; ///< as the channel holds them
};

constexpr ChannelId kChannels = 4;
constexpr Uid kUids[] = {kSystemUid, kAppA, kAppB, kAppC};

/** @p count changes, each different from its channel's current shares. */
std::vector<PowerChange>
seededChanges(std::uint64_t seed, int count)
{
    sim::RandomSource rng(seed);
    std::vector<bool> empty(kChannels, true);
    std::vector<PowerChange> changes;
    sim::Time at;
    for (int i = 0; i < count; ++i) {
        PowerChange c;
        // A zero gap puts two changes at one instant.
        at = at + sim::Time::fromMillis(rng.uniformInt(0, 3000));
        c.at = at;
        c.ch = static_cast<ChannelId>(rng.uniformInt(0, kChannels - 1));
        c.viaShares = rng.chance(0.5);
        auto uid = [&rng] { return kUids[rng.uniformInt(0, 3)]; };
        if (c.viaShares) {
            // Random mW make every non-empty set a real change.
            auto n = rng.uniformInt(empty[c.ch] ? 1 : 0, 3);
            for (std::int64_t k = 0; k < n; ++k)
                c.shares.emplace_back(uid(), rng.uniform(0.1, 400.0));
        } else {
            c.totalMw = rng.uniform(0.1, 400.0);
            auto n = rng.uniformInt(0, 3);
            for (std::int64_t k = 0; k < n; ++k) c.owners.push_back(uid());
            if (c.owners.empty()) c.shares.emplace_back(kSystemUid, c.totalMw);
            for (Uid u : c.owners)
                c.shares.emplace_back(
                    u, c.totalMw / static_cast<double>(c.owners.size()));
        }
        empty[c.ch] = c.shares.empty();
        changes.push_back(std::move(c));
    }
    return changes;
}

/** The bits of every reader, the state digest and the commit counter. */
std::vector<std::uint64_t>
observe(const EnergyAccountant &acc, const obs::MetricRegistry &reg)
{
    std::vector<std::uint64_t> bits;
    auto put = [&bits](double v) {
        bits.push_back(std::bit_cast<std::uint64_t>(v));
    };
    put(acc.totalEnergyMj());
    for (ChannelId ch = 0; ch < kChannels; ++ch) put(acc.channelEnergyMj(ch));
    for (Uid uid : kUids) {
        put(acc.uidEnergyMj(uid));
        for (ChannelId ch = 0; ch < kChannels; ++ch)
            put(acc.uidChannelEnergyMj(uid, ch));
    }
    sim::StateDigest d;
    acc.digestState(d);
    bits.push_back(d.value());
    put(reg.value(reg.find("power.channel_commits")));
    return bits;
}

struct Replay {
    std::vector<std::vector<std::uint64_t>> afterEachChange;
    double commits = 0.0;
};

/**
 * Apply @p changes in order, observing after each. With @p probe set,
 * also make no-op sets through both setters and read every reader at up
 * to three seeded random instants before each change.
 */
Replay
replay(const std::vector<PowerChange> &changes, bool probe)
{
    sim::Simulator sim;
    obs::MetricRegistry reg;
    reg.install();
    EnergyAccountant acc(sim);
    for (ChannelId ch = 0; ch < kChannels; ++ch)
        acc.makeChannel("ch" + std::to_string(ch));
    std::vector<const PowerChange *> current(kChannels, nullptr);
    sim::RandomSource rng(0x0b5e);
    Replay out;
    for (const PowerChange &c : changes) {
        std::vector<sim::Time> probes;
        for (std::int64_t k = probe ? rng.uniformInt(0, 3) : 0; k > 0; --k)
            probes.push_back(rng.uniformTime(
                sim.now(), c.at + sim::Time::fromNanos(1)));
        std::sort(probes.begin(), probes.end());
        for (sim::Time t : probes) {
            sim.run(t);
            auto ch = static_cast<ChannelId>(rng.uniformInt(0, kChannels - 1));
            if (const PowerChange *cur = current[ch]) {
                acc.setPowerShares(ch, cur->shares);
                if (!cur->viaShares)
                    acc.setPower(ch, cur->totalMw, cur->owners);
            } else {
                acc.setPowerShares(ch, std::vector<std::pair<Uid, double>>{});
                acc.setPower(ch, 0.0, {});
            }
            observe(acc, reg);
        }
        sim.run(c.at);
        if (c.viaShares)
            acc.setPowerShares(c.ch, c.shares);
        else
            acc.setPower(c.ch, c.totalMw, c.owners);
        current[c.ch] = &c;
        out.afterEachChange.push_back(observe(acc, reg));
    }
    sim.runFor(1_s);
    out.afterEachChange.push_back(observe(acc, reg));
    out.commits = reg.value(reg.find("power.channel_commits"));
    return out;
}

TEST(EnergyAccountantTest, NoOpSetsAndReadsMoveNoBit)
{
    // One seeded sequence of real changes on four channels, replayed
    // twice; the second replay adds no-op sets and reads at random
    // instants. Only real changes may commit, so every read, the digest
    // and the commit counter must match bit for bit after each change.
    const std::vector<PowerChange> changes = seededChanges(0x5eed, 400);
    Replay plain = replay(changes, false);
    Replay probed = replay(changes, true);
    ASSERT_EQ(probed.afterEachChange.size(), plain.afterEachChange.size());
    for (std::size_t i = 0; i < plain.afterEachChange.size(); ++i)
        ASSERT_EQ(probed.afterEachChange[i], plain.afterEachChange[i])
            << "after change " << i;
    EXPECT_EQ(plain.commits, static_cast<double>(changes.size()));
    EXPECT_EQ(probed.commits, plain.commits);
}

TEST(EnergyAccountantTest, ChannelNamesStored)
{
    sim::Simulator sim;
    EnergyAccountant acc(sim);
    ChannelId ch = acc.makeChannel("screen");
    EXPECT_EQ(acc.channelName(ch), "screen");
    EXPECT_EQ(acc.channelCount(), 1u);
}

} // namespace
} // namespace leaseos::power
