/**
 * @file
 * Unit tests for obs::MetricRegistry — registration/interning, the push
 * and bound metric kinds, histogram bucketing, snapshots, the
 * thread-local install protocol, and concurrent writers (the latter is
 * the case CI runs under ThreadSanitizer).
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <thread>
#include <vector>

#include "obs/metric_registry.h"

namespace leaseos::obs {
namespace {

TEST(MetricRegistryTest, CountersAccumulate)
{
    MetricRegistry reg;
    MetricId c = reg.counter("lease.created");
    EXPECT_NE(c, kInvalidMetricId);
    EXPECT_DOUBLE_EQ(reg.value(c), 0.0);
    reg.add(c);
    reg.add(c, 2.5);
    EXPECT_DOUBLE_EQ(reg.value(c), 3.5);
    EXPECT_EQ(reg.kind(c), MetricKind::Counter);
    EXPECT_EQ(reg.name(c), "lease.created");
}

TEST(MetricRegistryTest, ReRegistrationDedupsByName)
{
    MetricRegistry reg;
    MetricId a = reg.counter("shared");
    MetricId b = reg.counter("shared");
    EXPECT_EQ(a, b);
    reg.add(a);
    reg.add(b);
    EXPECT_DOUBLE_EQ(reg.value(a), 2.0);
    EXPECT_EQ(reg.size(), 1u);
}

TEST(MetricRegistryTest, KindMismatchOnReRegistrationThrows)
{
    MetricRegistry reg;
    reg.counter("x");
    EXPECT_THROW(reg.histogram("x"), std::logic_error);
}

TEST(MetricRegistryTest, FindByName)
{
    MetricRegistry reg;
    MetricId a = reg.counter("bbb");
    MetricId b = reg.counter("aaa");
    EXPECT_EQ(reg.find("bbb"), a);
    EXPECT_EQ(reg.find("aaa"), b);
    EXPECT_EQ(reg.find("none"), kInvalidMetricId);
}

TEST(MetricRegistryTest, BoundMetricsPullTheirCallback)
{
    MetricRegistry reg;
    double level = 1.5;
    MetricId g = reg.boundGauge("level", [&] { return level; });
    MetricId c = reg.boundCounter("total", [&] { return 2.0 * level; });
    EXPECT_DOUBLE_EQ(reg.value(g), 1.5);
    EXPECT_DOUBLE_EQ(reg.value(c), 3.0);
    level = 4.0;
    EXPECT_DOUBLE_EQ(reg.value(g), 4.0);
    EXPECT_DOUBLE_EQ(reg.value(c), 8.0);
    EXPECT_EQ(reg.kind(g), MetricKind::BoundGauge);
    EXPECT_EQ(reg.kind(c), MetricKind::BoundCounter);
}

TEST(MetricRegistryTest, HistogramBucketsByLog2)
{
    // bucket 0: v < 1; bucket 1+floor(log2 v) otherwise, clamped.
    EXPECT_EQ(MetricRegistry::bucketFor(0.0), 0);
    EXPECT_EQ(MetricRegistry::bucketFor(0.5), 0);
    EXPECT_EQ(MetricRegistry::bucketFor(-3.0), 0);
    EXPECT_EQ(MetricRegistry::bucketFor(1.0), 1);
    EXPECT_EQ(MetricRegistry::bucketFor(2.0), 2);
    EXPECT_EQ(MetricRegistry::bucketFor(3.9), 2);
    EXPECT_EQ(MetricRegistry::bucketFor(4.0), 3);
    EXPECT_EQ(MetricRegistry::bucketFor(1e300),
              MetricRegistry::kHistBuckets - 1);

    MetricRegistry reg;
    MetricId h = reg.histogram("lease.term_seconds");
    reg.observe(h, 0.5);
    reg.observe(h, 2.0);
    reg.observe(h, 3.0);
    EXPECT_EQ(reg.histCount(h), 3u);
    EXPECT_DOUBLE_EQ(reg.histSum(h), 5.5);
    EXPECT_EQ(reg.histBucket(h, 0), 1u);
    EXPECT_EQ(reg.histBucket(h, 2), 2u);
    // value() of a histogram is its observation count.
    EXPECT_DOUBLE_EQ(reg.value(h), 3.0);
}

TEST(MetricRegistryTest, SnapshotKeepsRegistrationOrder)
{
    MetricRegistry reg;
    reg.counter("zz");
    MetricId h = reg.histogram("hist");
    reg.boundGauge("aa", [] { return 0.0; });
    reg.observe(h, 2.0);
    auto snap = reg.snapshot();
    ASSERT_EQ(snap.size(), 7u);
    EXPECT_EQ(snap[0].first, "zz");
    EXPECT_EQ(snap[1].first, "hist.count");
    EXPECT_DOUBLE_EQ(snap[1].second, 1.0);
    EXPECT_EQ(snap[2].first, "hist.sum");
    EXPECT_DOUBLE_EQ(snap[2].second, 2.0);
    EXPECT_EQ(snap[3].first, "hist.p50");
    EXPECT_EQ(snap[4].first, "hist.p90");
    EXPECT_EQ(snap[5].first, "hist.p99");
    EXPECT_EQ(snap[6].first, "aa");
}

TEST(MetricRegistryTest, HistPercentileInterpolatesWithinBucket)
{
    MetricRegistry reg;
    MetricId h = reg.histogram("h");
    EXPECT_DOUBLE_EQ(reg.histPercentile(h, 0.5), 0.0); // empty
    // 100 observations, all in bucket 3 = [4, 8): interpolation walks the
    // bucket linearly with rank.
    for (int i = 0; i < 100; ++i) reg.observe(h, 5.0);
    EXPECT_DOUBLE_EQ(reg.histPercentile(h, 0.50), 6.0);
    EXPECT_DOUBLE_EQ(reg.histPercentile(h, 1.00), 8.0);
    EXPECT_DOUBLE_EQ(reg.histPercentile(h, 0.0), 4.0 + 4.0 / 100.0);
}

TEST(MetricRegistryTest, HistPercentileSpansBuckets)
{
    MetricRegistry reg;
    MetricId h = reg.histogram("h");
    // 90 small observations in bucket 0 ([0,1)) and 10 in bucket 5
    // ([16,32)): p50 stays in the low bucket, p99 lands in the tail.
    for (int i = 0; i < 90; ++i) reg.observe(h, 0.5);
    for (int i = 0; i < 10; ++i) reg.observe(h, 20.0);
    EXPECT_DOUBLE_EQ(reg.histPercentile(h, 0.50), 50.0 / 90.0);
    EXPECT_DOUBLE_EQ(reg.histPercentile(h, 0.90), 1.0);
    EXPECT_DOUBLE_EQ(reg.histPercentile(h, 0.99),
                     16.0 + 16.0 * (99.0 - 90.0) / 10.0);
    // Percentiles are monotone in q.
    double last = 0.0;
    for (double q = 0.0; q <= 1.0; q += 0.05) {
        double p = reg.histPercentile(h, q);
        EXPECT_GE(p, last);
        last = p;
    }
}

TEST(MetricRegistryTest, InstallNestsAndRestores)
{
    EXPECT_EQ(MetricRegistry::current(), nullptr);
    {
        MetricRegistry outer;
        outer.install();
        EXPECT_EQ(MetricRegistry::current(), &outer);
        {
            MetricRegistry inner;
            inner.install();
            EXPECT_EQ(MetricRegistry::current(), &inner);
            inner.uninstall();
        }
        EXPECT_EQ(MetricRegistry::current(), &outer);
        outer.uninstall();
    }
    EXPECT_EQ(MetricRegistry::current(), nullptr);
}

TEST(MetricRegistryTest, DestructorUninstallsItself)
{
    {
        MetricRegistry reg;
        reg.install();
        EXPECT_EQ(MetricRegistry::current(), &reg);
    }
    EXPECT_EQ(MetricRegistry::current(), nullptr);
}

TEST(MetricRegistryTest, ConcurrentWritersNeverLoseCounts)
{
    // Registration happens before workers start (the documented
    // threading contract); add/observe are relaxed atomics. CI builds
    // this test under -fsanitize=thread.
    MetricRegistry reg;
    MetricId c = reg.counter("hits");
    MetricId h = reg.histogram("obs");
    constexpr int kThreads = 4;
    constexpr int kPerThread = 25'000;
    std::vector<std::thread> workers;
    workers.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t)
        workers.emplace_back([&reg, c, h] {
            for (int i = 0; i < kPerThread; ++i) {
                reg.add(c);
                reg.observe(h, 2.0);
            }
        });
    for (auto &w : workers) w.join();
    EXPECT_DOUBLE_EQ(reg.value(c),
                     static_cast<double>(kThreads * kPerThread));
    EXPECT_EQ(reg.histCount(h),
              static_cast<std::uint64_t>(kThreads * kPerThread));
    EXPECT_DOUBLE_EQ(reg.histSum(h), 2.0 * kThreads * kPerThread);
}

} // namespace
} // namespace leaseos::obs
