/**
 * @file
 * Unit tests for the EnergyAccountant's integration and attribution.
 */

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "common/ids.h"
#include "power/energy_accountant.h"
#include "sim/simulator.h"

namespace leaseos::power {
namespace {

using sim::operator""_s;

constexpr Uid kAppA = kFirstAppUid;
constexpr Uid kAppB = kFirstAppUid + 1;

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
    // instant. There the second re-sets a channel to its own shares,
    // which commits the pending interval; every read of the first must
    // return the bits the second then holds.
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
        committed.setPowerShares(0, cpuShares);

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
