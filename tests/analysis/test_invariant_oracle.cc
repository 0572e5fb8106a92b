/**
 * @file
 * Tests for the checked-mode invariant oracle (analysis/invariants.h).
 *
 * The oracle class is compiled in every build flavour, so these tests
 * drive each check directly in Record mode: positive runs over a real
 * Table 5 cell must stay clean, and a deliberate violation of each
 * invariant must produce a structured diagnostic.
 */

#include <gtest/gtest.h>

#include "analysis/invariants.h"
#include "apps/registry.h"
#include "apps/synthetic/synthetic_apps.h"
#include "harness/device.h"
#include "harness/experiment.h"
#include "lease/lease_table.h"
#include "lease/leaseos_runtime.h"
#include "os/binder.h"
#include "sim/simulator.h"

namespace leaseos {
namespace {

using analysis::InvariantOracle;
using lease::LeaseState;
using sim::operator""_s;
using sim::operator""_min;

InvariantOracle
recordOracle()
{
    return InvariantOracle(InvariantOracle::FailMode::Record);
}

// ---- State machine ---------------------------------------------------------

TEST(InvariantOracle, LegalTransitionRelationMatchesFig5)
{
    using analysis::InvariantOracle;
    // Legal arcs.
    EXPECT_TRUE(InvariantOracle::legalTransition(LeaseState::Active,
                                                 LeaseState::Inactive));
    EXPECT_TRUE(InvariantOracle::legalTransition(LeaseState::Active,
                                                 LeaseState::Deferred));
    EXPECT_TRUE(InvariantOracle::legalTransition(LeaseState::Inactive,
                                                 LeaseState::Active));
    EXPECT_TRUE(InvariantOracle::legalTransition(LeaseState::Deferred,
                                                 LeaseState::Active));
    EXPECT_TRUE(InvariantOracle::legalTransition(LeaseState::Deferred,
                                                 LeaseState::Inactive));
    for (LeaseState from : {LeaseState::Active, LeaseState::Inactive,
                            LeaseState::Deferred})
        EXPECT_TRUE(
            InvariantOracle::legalTransition(from, LeaseState::Dead));

    // DEAD is terminal; self-loops and skip arcs are not transitions.
    for (LeaseState to : {LeaseState::Active, LeaseState::Inactive,
                          LeaseState::Deferred, LeaseState::Dead})
        EXPECT_FALSE(
            InvariantOracle::legalTransition(LeaseState::Dead, to));
    EXPECT_FALSE(InvariantOracle::legalTransition(LeaseState::Inactive,
                                                  LeaseState::Deferred));
    EXPECT_FALSE(InvariantOracle::legalTransition(LeaseState::Active,
                                                  LeaseState::Active));
    EXPECT_FALSE(InvariantOracle::legalTransition(LeaseState::Inactive,
                                                  LeaseState::Inactive));
}

TEST(InvariantOracle, IllegalDeadToActiveIsReported)
{
    InvariantOracle oracle = recordOracle();
    oracle.noteLeaseTransition(5_s, 42, LeaseState::Dead,
                               LeaseState::Active);
    ASSERT_EQ(oracle.violations().size(), 1u);
    const analysis::Violation &v = oracle.violations().front();
    EXPECT_EQ(v.check, "state-machine");
    EXPECT_EQ(v.leaseId, 42u);
    EXPECT_EQ(v.simTime, 5_s);
    EXPECT_NE(v.toString().find("DEAD -> ACTIVE"), std::string::npos);
}

TEST(InvariantOracle, LegalTransitionsAreNotReported)
{
    InvariantOracle oracle = recordOracle();
    oracle.noteLeaseTransition(1_s, 1, LeaseState::Active,
                               LeaseState::Deferred);
    oracle.noteLeaseTransition(2_s, 1, LeaseState::Deferred,
                               LeaseState::Active);
    oracle.noteLeaseTransition(3_s, 1, LeaseState::Active,
                               LeaseState::Inactive);
    oracle.noteLeaseTransition(4_s, 1, LeaseState::Inactive,
                               LeaseState::Dead);
    EXPECT_TRUE(oracle.clean());
}

// ---- Event-time monotonicity ----------------------------------------------

TEST(InvariantOracle, BackwardsEventDispatchIsReported)
{
    InvariantOracle oracle = recordOracle();
    oracle.noteEventDispatch(5_s, 5_s); // same instant: fine
    oracle.noteEventDispatch(5_s, 6_s); // future: fine
    EXPECT_TRUE(oracle.clean());
    oracle.noteEventDispatch(5_s, 4_s); // the clock ran backwards
    ASSERT_EQ(oracle.violations().size(), 1u);
    EXPECT_EQ(oracle.violations().front().check, "time-monotonicity");
}

// ---- Deferral τ accounting -------------------------------------------------

TEST(InvariantOracle, DeferralSettleMatchingRealizedTimeIsClean)
{
    InvariantOracle oracle = recordOracle();
    // Deferred at 5 s, settled at 30 s, 25 s credited: exact.
    oracle.noteDeferralSettled(30_s, 7, 5_s, 25.0);
    // Killed mid-τ at 15 s with the realized 10 s credited: also fine.
    oracle.noteDeferralSettled(15_s, 8, 5_s, 10.0);
    EXPECT_TRUE(oracle.clean());
}

TEST(InvariantOracle, DeferralSettleCreditingScheduledTauIsReported)
{
    InvariantOracle oracle = recordOracle();
    // The historic bug: the full scheduled τ (25 s) credited even though
    // the lease died 10 s into the deferral.
    oracle.noteDeferralSettled(15_s, 7, 5_s, 25.0);
    ASSERT_EQ(oracle.violations().size(), 1u);
    const analysis::Violation &v = oracle.violations().front();
    EXPECT_EQ(v.check, "deferral-accounting");
    EXPECT_EQ(v.leaseId, 7u);
    EXPECT_NE(v.detail.find("25"), std::string::npos);
    EXPECT_NE(v.detail.find("10"), std::string::npos);
}

// ---- Install / current ------------------------------------------------------

TEST(InvariantOracle, InstallNestsAndRestores)
{
    EXPECT_EQ(InvariantOracle::current(), nullptr);
    {
        InvariantOracle outer = recordOracle();
        outer.install();
        EXPECT_EQ(InvariantOracle::current(), &outer);
        {
            InvariantOracle inner = recordOracle();
            inner.install();
            EXPECT_EQ(InvariantOracle::current(), &inner);
        }
        EXPECT_EQ(InvariantOracle::current(), &outer);
    }
    EXPECT_EQ(InvariantOracle::current(), nullptr);
}

// ---- App teardown balance ---------------------------------------------------

TEST(InvariantOracle, LeakyAppIsFlaggedAtTeardown)
{
    harness::Device device;
    // §5.1's validation app: acquires a wakelock and never releases it.
    auto &leaky = device.install<apps::LongHoldingTestApp>();
    device.start();
    device.runFor(1_min);

    InvariantOracle oracle = recordOracle();
    oracle.checkAppTeardown(device.simulator().now(), device.server(),
                            leaky.uid());
    ASSERT_EQ(oracle.violations().size(), 1u);
    EXPECT_EQ(oracle.violations().front().check, "teardown-balance");
    EXPECT_NE(oracle.violations().front().detail.find("wakelock"),
              std::string::npos);
}

TEST(InvariantOracle, CleanTeardownPasses)
{
    harness::Device device;
    auto &leaky = device.install<apps::LongHoldingTestApp>();
    device.start();
    device.runFor(30_s);
    // The app cleans up (what a correct stop() path does) before the
    // teardown check runs.
    device.server().powerManager().release(leaky.token());
    device.server().powerManager().destroy(leaky.token());

    InvariantOracle oracle = recordOracle();
    oracle.checkAppTeardown(device.simulator().now(), device.server(),
                            leaky.uid());
    EXPECT_TRUE(oracle.clean());
}

// ---- Lease table ↔ binder consistency --------------------------------------

TEST(InvariantOracle, Table5CellAuditsCleanUnderLeaseOS)
{
    // Mirror bench_table5_mitigation's smallest cell: the Torch app (the
    // cleanest Long-Holding row) under LeaseOS with the standard glance
    // script, then run every pull-style audit.
    const apps::BuggyAppSpec &spec = apps::buggySpec("torch");
    harness::MitigationRunOptions opt;
    harness::Device device(harness::DeviceConfig{}
                               .withMode(harness::MitigationMode::LeaseOS)
                               .withProfile(opt.profile)
                               .withSeed(opt.seed));
    spec.install(device);
    spec.trigger(device);
    sim::PeriodicHandle glances = harness::installGlanceScript(
        device, opt.glanceInterval, opt.glanceLength);
    device.start();
    device.runFor(10_min);

    InvariantOracle oracle = recordOracle();
    device.auditInvariants(oracle);
    EXPECT_TRUE(oracle.clean())
        << oracle.violations().front().toString();
    EXPECT_GT(device.leaseos()->manager().table().size(), 0u);
}

TEST(InvariantOracle, LeaseOverRetiredTokenIsReported)
{
    const apps::BuggyAppSpec &spec = apps::buggySpec("torch");
    // The token stays retired through device destruction, so keep the
    // device's own checked-build oracle out of the way.
    harness::DeviceConfig config;
    config.mode = harness::MitigationMode::LeaseOS;
    config.checkedOracle = false;
    harness::Device device(config);
    spec.install(device);
    spec.trigger(device);
    device.start();
    device.runFor(1_min);

    auto &table = device.leaseos()->manager().table();
    auto leases = table.all();
    ASSERT_FALSE(leases.empty());
    // Simulate a service forgetting its lease when the kernel object died.
    device.server().tokens().retire(leases.front()->token);

    InvariantOracle oracle = recordOracle();
    oracle.auditLeaseTable(device.simulator(), table,
                           device.server().tokens());
    ASSERT_FALSE(oracle.clean());
    EXPECT_EQ(oracle.violations().front().check, "lease-table");
    EXPECT_EQ(oracle.violations().front().leaseId, leases.front()->id);
}

TEST(InvariantOracle, ServiceRecordOverRetiredTokenIsReported)
{
    // The mirror of LeaseOverRetiredTokenIsReported: a service keeps the
    // record of a kernel object that died.
    harness::DeviceConfig config;
    config.checkedOracle = false;
    harness::Device device(config);
    os::SystemServer &server = device.server();
    os::TokenId token = server.locationManager().requestLocationUpdates(
        kFirstAppUid, 10_s, nullptr);
    device.runFor(1_min);

    InvariantOracle before = recordOracle();
    before.auditServiceTokens(device.simulator().now(), server);
    EXPECT_TRUE(before.clean()) << before.violations().front().toString();

    server.tokens().retire(token);
    InvariantOracle oracle = recordOracle();
    oracle.auditServiceTokens(device.simulator().now(), server);
    ASSERT_EQ(oracle.violations().size(), 1u);
    EXPECT_EQ(oracle.violations().front().check, "service-token");
    EXPECT_NE(oracle.violations().front().detail.find("location service"),
              std::string::npos);
}

TEST(InvariantOracle, DanglingTimerOnInactiveLeaseIsReported)
{
    const apps::BuggyAppSpec &spec = apps::buggySpec("torch");
    harness::DeviceConfig config;
    config.mode = harness::MitigationMode::LeaseOS;
    config.checkedOracle = false;
    harness::Device device(config);
    spec.install(device);
    spec.trigger(device);
    device.start();
    device.runFor(1_min);

    auto &table = device.leaseos()->manager().table();
    auto leases = table.all();
    ASSERT_FALSE(leases.empty());
    lease::Lease *l = leases.front();
    // Force an inconsistent snapshot: the lease claims INACTIVE while its
    // term-end timer is still armed.
    LeaseState saved = l->state;
    l->state = LeaseState::Inactive;

    InvariantOracle oracle = recordOracle();
    oracle.auditLeaseTable(device.simulator(), table,
                           device.server().tokens());
    l->state = saved;
    ASSERT_FALSE(oracle.clean());
    EXPECT_EQ(oracle.violations().front().check, "lease-table");
}

TEST(InvariantOracle, ActiveLeaseWithoutTermEndIsReported)
{
    // An ACTIVE lease whose term-end event is not pending: the term would
    // never end, so the lease would stay ACTIVE past its deadline.
    sim::Simulator sim;
    os::TokenAllocator tokens;
    lease::LeaseTable table;
    table.create(lease::ResourceType::Wakelock, tokens.next(), kFirstAppUid);
    ASSERT_EQ(table.all().front()->state, LeaseState::Active);

    InvariantOracle oracle = recordOracle();
    oracle.auditLeaseTable(sim, table, tokens);
    ASSERT_EQ(oracle.violations().size(), 1u);
    EXPECT_EQ(oracle.violations().front().check, "lease-table");
    EXPECT_NE(oracle.violations().front().detail.find("term-end"),
              std::string::npos);
}

TEST(InvariantOracle, ActiveLeasePastItsTermEndIsReported)
{
    // A 5 s term whose term-end event was armed late, at 10 s: a timer is
    // pending, but the lease stays ACTIVE past its deadline.
    sim::Simulator sim;
    os::TokenAllocator tokens;
    lease::LeaseTable table;
    lease::Lease &l = table.create(lease::ResourceType::Wakelock,
                                   tokens.next(), kFirstAppUid);
    l.termLength = 5_s;
    l.pendingEvent = sim.schedule(10_s, [] {});

    InvariantOracle oracle = recordOracle();
    sim.run(5_s);
    oracle.auditLeaseTable(sim, table, tokens);
    EXPECT_TRUE(oracle.clean()) << "the term-end may still run at 5 s";

    sim.run(6_s);
    oracle.auditLeaseTable(sim, table, tokens);
    ASSERT_EQ(oracle.violations().size(), 1u);
    EXPECT_EQ(oracle.violations().front().check, "lease-table");
    EXPECT_EQ(oracle.violations().front().leaseId, l.id);
    EXPECT_NE(oracle.violations().front().detail.find("term ended"),
              std::string::npos);
}

TEST(InvariantOracle, TwoLeasesForOneTokenAreReported)
{
    // A manager that missed the token's existing lease creates a second
    // one for it: the token index can name only one of the two.
    sim::Simulator sim;
    os::TokenAllocator tokens;
    lease::LeaseTable table;
    os::TokenId token = tokens.next();
    for (int i = 0; i < 2; ++i)
        table.create(lease::ResourceType::Wakelock, token, kFirstAppUid)
            .state = LeaseState::Inactive; // no timer armed, none expected
    ASSERT_EQ(table.size(), 2u);

    InvariantOracle oracle = recordOracle();
    oracle.auditLeaseTable(sim, table, tokens);
    ASSERT_EQ(oracle.violations().size(), 1u);
    EXPECT_EQ(oracle.violations().front().check, "lease-table");
    EXPECT_NE(oracle.violations().front().detail.find("token index"),
              std::string::npos);
}

// ---- Service records --------------------------------------------------------

TEST(InvariantOracle, ChurningGpsAppAuditsCleanWithBoundedSnapshots)
{
    // BetterWeather removes its update request on every retry and makes
    // a new one. Removal frees the request and its lease goes DEAD, so
    // records, tokens and leases all stay at the one live request however
    // many the app has made.
    const apps::BuggyAppSpec &spec = apps::buggySpec("betterweather");
    harness::DeviceConfig config;
    config.mode = harness::MitigationMode::LeaseOS;
    config.checkedOracle = false;
    harness::Device device(config);
    spec.install(device);
    spec.trigger(device);
    device.start();
    device.runFor(120_min);

    InvariantOracle oracle = recordOracle();
    device.auditInvariants(oracle);
    EXPECT_TRUE(oracle.clean()) << oracle.violations().front().toString();

    EXPECT_LE(device.server().locationManager().records().size(), 1u);
    auto &manager = device.leaseos()->manager();
    EXPECT_GT(manager.totalCreated(), 10u);
    EXPECT_LE(manager.table().size(), 1u);
}

// ---- Energy conservation ----------------------------------------------------

TEST(InvariantOracle, EnergyAuditCleanAfterRealRun)
{
    harness::Device device(harness::DeviceConfig{}.withMode(
        harness::MitigationMode::LeaseOS));
    apps::installGenericFleet(device, 4);
    device.start();
    device.runFor(5_min);

    InvariantOracle oracle = recordOracle();
    oracle.auditEnergy(device.simulator().now(), device.accountant(),
                       device.battery());
    EXPECT_TRUE(oracle.clean())
        << oracle.violations().front().toString();
    EXPECT_GT(device.accountant().totalEnergyMj(), 0.0);
}

TEST(InvariantOracle, MismatchedBatteryAccountingIsReported)
{
    // A battery bound to one accountant audited against another models a
    // bookkeeping split-brain: the drain exceeds everything the audited
    // accountant integrated, which conservation must reject.
    harness::Device drained;
    apps::installGenericFleet(drained, 2);
    drained.start();
    drained.runFor(1_min);
    ASSERT_GT(drained.battery().drainedMj(), 0.0);

    sim::Simulator freshSim;
    power::EnergyAccountant emptyAccountant(freshSim);

    InvariantOracle oracle = recordOracle();
    oracle.auditEnergy(drained.simulator().now(), emptyAccountant,
                       drained.battery());
    ASSERT_FALSE(oracle.clean());
    EXPECT_EQ(oracle.violations().front().check, "energy-conservation");
}

} // namespace
} // namespace leaseos
