/**
 * @file
 * Tests for the harness: tables, figures, metrics sampler, study corpus,
 * and the Table 5 cell runner.
 */

#include <gtest/gtest.h>

#include "apps/registry.h"
#include "harness/experiment.h"
#include "harness/figure.h"
#include "harness/metrics.h"
#include "harness/study/misbehavior_study.h"
#include "harness/table.h"

namespace leaseos::harness {
namespace {

using sim::operator""_s;
using sim::operator""_min;

TEST(TextTableTest, AlignsColumnsAndFormats)
{
    TextTable table({"App", "Power"});
    table.addRow({"K-9", TextTable::fmt(890.35)});
    table.addSeparator();
    table.addRow({"Torch", TextTable::pct(98.41)});
    std::string out = table.toString();
    EXPECT_NE(out.find("App"), std::string::npos);
    EXPECT_NE(out.find("890.35"), std::string::npos);
    EXPECT_NE(out.find("98.41%"), std::string::npos);
    EXPECT_EQ(table.rows(), 2u);
}

TEST(FigureTest, BarChartScalesBars)
{
    std::string out = barChart({{"a", 100.0}, {"b", 50.0}}, "mW");
    EXPECT_NE(out.find("a"), std::string::npos);
    EXPECT_NE(out.find("100.00 mW"), std::string::npos);
    // The larger bar has more blocks.
    auto count_hashes = [&](const std::string &label) {
        auto pos = out.find(label);
        auto end = out.find('\n', pos);
        return std::count(out.begin() + static_cast<long>(pos),
                          out.begin() + static_cast<long>(end), '#');
    };
    EXPECT_GT(count_hashes("a"), count_hashes("b"));
}

TEST(FigureTest, HeaderNamesArtifact)
{
    std::string h = figureHeader("Figure 9", "holding times");
    EXPECT_NE(h.find("Figure 9"), std::string::npos);
}

TEST(MetricsSamplerTest, GaugesAndDeltas)
{
    sim::Simulator sim;
    MetricsSampler sampler(sim, 60_s);
    double gauge = 1.0;
    double counter = 0.0;
    sampler.addGauge("g", [&] { return gauge; });
    sampler.addDeltaGauge("d", [&] { return counter; });
    sampler.start();
    sim::PeriodicHandle load = sim.schedulePeriodicScoped(1_s, [&] {
        counter += 0.5;
    });
    sim.run(5_min);
    EXPECT_EQ(sampler.series("g").size(), 5u);
    EXPECT_NEAR(sampler.series("g").mean(), 1.0, 1e-9);
    // Each 60 s bucket sees 60 ticks * 0.5.
    EXPECT_NEAR(sampler.series("d").points()[1].value, 30.0, 1e-9);
}

// ---- Study corpus -------------------------------------------------------

TEST(StudyTest, CorpusMatchesPublishedMarginals)
{
    using study::CaseType;
    using study::RootCause;
    EXPECT_EQ(study::corpus().size(), 109u);
    auto counts = study::summarize();
    EXPECT_EQ(counts[CaseType::FAB][RootCause::Bug], 10);
    EXPECT_EQ(counts[CaseType::LHB][RootCause::Bug], 18);
    EXPECT_EQ(counts[CaseType::LHB][RootCause::Configuration], 5);
    EXPECT_EQ(counts[CaseType::LUB][RootCause::Bug], 23);
    EXPECT_EQ(counts[CaseType::EUB][RootCause::Configuration], 18);
    EXPECT_EQ(counts[CaseType::Unknown][RootCause::Unknown], 12);
    EXPECT_EQ(study::distinctApps(), 81);
}

TEST(StudyTest, FindingsMatchPaper)
{
    auto f1 = study::finding1();
    // "FAB, LHB and LUB together occupy 58% ... EUB occupies 31%".
    EXPECT_NEAR(f1.defectSharePct, 58.0, 1.0);
    EXPECT_NEAR(f1.eubSharePct, 31.0, 1.0);
    auto f2 = study::finding2();
    // "The majority (80%) of FAB/LHB/LUB due to Bug; 77% of EUB non-Bug".
    EXPECT_NEAR(f2.defectBugSharePct, 80.0, 2.0);
    EXPECT_NEAR(f2.eubNonBugSharePct, 77.0, 2.0);
}

// ---- Mitigation cell runner -------------------------------------------------

TEST(ExperimentTest, ReductionPercentMath)
{
    EXPECT_DOUBLE_EQ(reductionPercent(100.0, 8.0), 92.0);
    EXPECT_DOUBLE_EQ(reductionPercent(0.0, 5.0), 0.0);
}

TEST(ExperimentTest, LeaseCellBeatsVanillaOnTorch)
{
    const auto &spec = apps::buggySpec("torch");
    MitigationRunOptions opt;
    opt.duration = 10_min;
    auto vanilla =
        runScenario(mitigationCellSpec(spec, MitigationMode::None, opt));
    auto leased =
        runScenario(mitigationCellSpec(spec, MitigationMode::LeaseOS, opt));
    EXPECT_GT(vanilla.appPowerMw, 10.0);
    EXPECT_GT(reductionPercent(vanilla.appPowerMw, leased.appPowerMw),
              80.0);
    EXPECT_GT(leased.deferrals, 0u);
    EXPECT_GT(
        leased.behaviorCounts.at(lease::BehaviorType::LongHolding), 0u);
}

TEST(ExperimentTest, GlanceScriptWakesDeviceBriefly)
{
    DeviceConfig cfg;
    Device device(cfg);
    MitigationRunOptions opt;
    opt.glanceInterval = 2_min;
    opt.glanceLength = 10_s;
    sim::PeriodicHandle glances =
        installGlanceScript(device, opt.glanceInterval, opt.glanceLength);
    device.start();
    device.runFor(10_min);
    // ~5 glances x 10 s of screen-on.
    double awake = device.cpu().awakeSeconds();
    EXPECT_GT(awake, 30.0);
    EXPECT_LT(awake, 120.0);
}

} // namespace
} // namespace leaseos::harness
