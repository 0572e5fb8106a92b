/**
 * @file
 * Unit tests for TimeSeries and the figure table renderer.
 */

#include <gtest/gtest.h>

#include "sim/time_series.h"

namespace leaseos::sim {
namespace {

TEST(TimeSeriesTest, RecordsAndAggregates)
{
    TimeSeries s("x");
    s.record(1_s, 2.0);
    s.record(2_s, 4.0);
    s.record(3_s, 6.0);
    EXPECT_EQ(s.size(), 3u);
    EXPECT_DOUBLE_EQ(s.sum(), 12.0);
    EXPECT_DOUBLE_EQ(s.mean(), 4.0);
    EXPECT_DOUBLE_EQ(s.max(), 6.0);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
}

TEST(TimeSeriesTest, EmptyAggregatesAreZero)
{
    TimeSeries s;
    EXPECT_TRUE(s.empty());
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    EXPECT_DOUBLE_EQ(s.max(), 0.0);
}

TEST(RenderSeriesTableTest, AlignsSharedTimestamps)
{
    TimeSeries a("alpha");
    TimeSeries b("beta");
    a.record(60_s, 1.0);
    b.record(60_s, 2.0);
    b.record(120_s, 3.0);
    std::string table = renderSeriesTable({&a, &b}, "min");
    EXPECT_NE(table.find("alpha"), std::string::npos);
    EXPECT_NE(table.find("beta"), std::string::npos);
    EXPECT_NE(table.find("1.0"), std::string::npos);
    EXPECT_NE(table.find("2.0"), std::string::npos);
}

} // namespace
} // namespace leaseos::sim
