/**
 * @file
 * Tests for the resource services' record maps: after thousands of
 * release cycles the released locks persist until destroy() and removed
 * requests are gone, and the walks and per-uid queries count only the
 * live records.
 */

#include "os_fixture.h"

namespace leaseos::os {
namespace {

using sim::operator""_ms;
using sim::operator""_s;
using testing::OsFixture;

constexpr int kCycles = 10000;

/** Spacing between cycles, so each cycle's IPC work has finished. */
constexpr sim::Time kGap = 5_ms;

struct ResourceTableTest : OsFixture {
    PowerManagerService &pms = server.powerManager();
    LocationManagerService &lms = server.locationManager();
    WifiManagerService &wms = server.wifiManager();
};

TEST_F(ResourceTableTest, QueriesListOnlyLiveTokensAfterRequestChurn)
{
    // Two apps request and remove updates; every 1000th request of the
    // first app stays outstanding. Removal frees a request, so only the
    // outstanding ones keep a record and a live token.
    std::vector<TokenId> live;
    for (int i = 0; i < kCycles; ++i) {
        TokenId mine = lms.requestLocationUpdates(kApp, 10_s, nullptr);
        TokenId other = lms.requestLocationUpdates(kApp2, 10_s, nullptr);
        lms.removeUpdates(other);
        if (i % 1000 == 0) live.push_back(mine);
        else lms.removeUpdates(mine);
        sim.runFor(kGap);
    }
    EXPECT_EQ(lms.activeRequests(kApp), live);
    EXPECT_TRUE(lms.activeRequests(kApp2).empty());
    EXPECT_EQ(lms.records().size(), live.size());
    EXPECT_EQ(server.tokens().liveCount(), live.size());
    EXPECT_EQ(lms.requestCount(kApp), std::uint64_t(kCycles));

    // Only the live requests accrue request time.
    double before = lms.requestSeconds(kApp);
    sim.runFor(10_s);
    EXPECT_NEAR(lms.requestSeconds(kApp) - before, 10.0 * live.size(), 1e-6);
    EXPECT_DOUBLE_EQ(lms.requestSeconds(kApp2), 0.0);
}

TEST_F(ResourceTableTest, QueriesListOnlyHeldTokensAfterAcquireChurn)
{
    // One lock cycled kCycles times stays one record; of kCycles further
    // locks, the ones acquired last in each thousand stay held.
    TokenId cycled = pms.newWakeLock(kApp, WakeLockType::Partial, "cycled");
    std::vector<TokenId> held;
    for (int i = 0; i < kCycles; ++i) {
        pms.acquire(cycled);
        pms.release(cycled);
        TokenId t = pms.newWakeLock(kApp, WakeLockType::Partial, "churn");
        pms.acquire(t);
        if (i % 1000 == 999) held.push_back(t);
        else pms.release(t);
        sim.runFor(kGap);
    }
    EXPECT_EQ(pms.heldTokens(kApp), held);
    EXPECT_EQ(pms.records().size(), std::size_t(kCycles) + 1);
    for (TokenId t : held) EXPECT_TRUE(pms.records().at(t).enabled);
    EXPECT_FALSE(pms.records().at(cycled).enabled);
    EXPECT_EQ(pms.acquireCount(kApp), 2u * kCycles);
    EXPECT_EQ(pms.releaseCount(kApp), 2u * kCycles - held.size());
}

TEST_F(ResourceTableTest, SuspendedRecordAccruesNoEnabledTime)
{
    for (int i = 0; i < kCycles; ++i) {
        TokenId t = pms.newWakeLock(kApp, WakeLockType::Partial, "churn");
        pms.acquire(t);
        pms.release(t);
        sim.runFor(kGap);
    }
    TokenId t = pms.newWakeLock(kApp, WakeLockType::Partial, "held");
    pms.acquire(t);
    pms.suspend(t);
    EXPECT_EQ(pms.heldTokens(kApp), std::vector<TokenId>{t});
    EXPECT_FALSE(pms.records().at(t).enabled);

    sim.runFor(10_s);
    EXPECT_DOUBLE_EQ(pms.heldSeconds(kApp), 10.0);
    EXPECT_DOUBLE_EQ(pms.enabledSecondsForToken(t), 0.0);
    EXPECT_DOUBLE_EQ(pms.enabledSeconds(kApp), 0.0);

    pms.restore(t);
    sim.runFor(5_s);
    EXPECT_DOUBLE_EQ(pms.enabledSecondsForToken(t), 5.0);
    EXPECT_DOUBLE_EQ(pms.heldSeconds(kApp), 15.0);
}

TEST_F(ResourceTableTest, RefilterFlipsOnlyLiveRecords)
{
    std::vector<TokenId> held;
    std::vector<TokenId> released;
    for (int i = 0; i < kCycles; ++i) {
        TokenId t = wms.createWifiLock(kApp, "churn");
        wms.acquire(t);
        if (i % 1000 == 0) {
            held.push_back(t);
        } else {
            wms.release(t);
            released.push_back(t);
        }
        sim.runFor(kGap);
    }
    bool allow = false;
    wms.setGlobalFilter([&allow](Uid) { return allow; });
    for (TokenId t : held) EXPECT_FALSE(wms.records().at(t).enabled);

    allow = true;
    wms.refilter();
    for (TokenId t : held) EXPECT_TRUE(wms.records().at(t).enabled);
    for (TokenId t : released) ASSERT_FALSE(wms.records().at(t).enabled);

    double before = wms.enabledSeconds(kApp);
    sim.runFor(10_s);
    EXPECT_NEAR(wms.enabledSeconds(kApp) - before, 10.0 * held.size(), 1e-6);
}

TEST_F(ResourceTableTest, DestroyingReleasedRecordsIsSafe)
{
    // removeUpdates() already freed each request: destroy() is a no-op.
    std::vector<TokenId> tokens;
    for (int i = 0; i < kCycles; ++i) {
        tokens.push_back(lms.requestLocationUpdates(kApp, 10_s, nullptr));
        lms.removeUpdates(tokens.back());
        sim.runFor(kGap);
    }
    TokenId live = lms.requestLocationUpdates(kApp, 10_s, nullptr);
    for (TokenId t : tokens) lms.destroy(t);
    for (TokenId t : tokens) lms.destroy(t); // second destroy: no-op
    EXPECT_EQ(lms.records().size(), 1u);
    EXPECT_EQ(lms.activeRequests(kApp), std::vector<TokenId>{live});
    EXPECT_EQ(server.tokens().liveCount(), 1u);

    // Ticks armed for the destroyed requests fire harmlessly.
    sim.runFor(30_s);
    EXPECT_DOUBLE_EQ(lms.requestSeconds(kApp), 30.0);
    lms.destroy(live);
    EXPECT_TRUE(lms.records().empty());
}

} // namespace
} // namespace leaseos::os
