/**
 * @file
 * Reproduces Figure 12: reduction ratio of power waste versus λ for
 * *intermittent* misbehaviour. Each test case is a sequence of random
 * misbehaving/normal slices (uniform 0-10 min); the reduction ratio is
 * computed over the wasted power (the idle wakelock draw), aggregated
 * across cases per λ.
 *
 * Paper shape: 0.49 / 0.66 / 0.74 / 0.78 / 0.82 for λ = 1..5 — larger λ
 * means a larger reduction, approaching λ/(1+λ).
 *
 * Scale note: the paper generates 1000 cases x 2000 slices; that is ~2
 * simulated weeks per case. We default to 60 cases x 24 slices, which
 * converges to the same means (seeded, deterministic), and the constants
 * below can be raised for a full-scale run.
 */

#include <iostream>

#include "apps/synthetic/synthetic_apps.h"
#include "harness/device.h"
#include "harness/figure.h"
#include "harness/table.h"

using namespace leaseos;
using sim::operator""_s;

namespace {

constexpr int kCases = 60;
constexpr int kSlicesPerCase = 24;

/**
 * Waste = app-attributed idle-channel energy beyond what its *normal*
 * (busy) slices legitimately cost. The idle draw during well-utilised
 * holds is the price of real work; only the idle draw of misbehaving
 * slices counts as waste — which is what the lease can reclaim.
 */
double
wastedEnergyMj(harness::Device &device, Uid uid, double normalSeconds)
{
    const auto &acc = device.accountant();
    power::ChannelId idle = acc.channelByName("cpu_idle");
    double idle_mj = acc.uidChannelEnergyMj(uid, idle);
    double legitimate =
        device.profile().cpuIdleAwakeMw * normalSeconds;
    return idle_mj > legitimate ? idle_mj - legitimate : 0.0;
}

double
runCase(const std::vector<sim::Time> &slices, int lambda, bool leased,
        sim::Time total)
{
    harness::DeviceConfig cfg;
    cfg.mode = leased ? harness::MitigationMode::LeaseOS
                      : harness::MitigationMode::None;
    cfg.leasePolicy.initialTerm = 5_s;
    cfg.leasePolicy.deferralInterval =
        sim::Time::fromSeconds(5.0 * lambda);
    cfg.leasePolicy.escalateDeferral = false; // λ is the variable here
    cfg.leasePolicy.adaptiveTerm = false;
    harness::Device device(cfg);
    auto &app = device.install<apps::IntermittentMisbehaviorApp>(slices);
    device.start();
    device.runFor(total);
    double normal_seconds = total.seconds() - app.misbehaveSeconds();
    return wastedEnergyMj(device, app.uid(), normal_seconds);
}

} // namespace

int
main()
{
    std::cout << harness::figureHeader(
        "Figure 12",
        "Reduction ratio of power waste under different lambda "
        "(intermittent misbehaviour; random 0-10 min slices). Paper: "
        "0.49, 0.66, 0.74, 0.78, 0.82 for lambda = 1..5.");

    // Pre-generate the per-case slice schedules (deterministic).
    sim::RandomSource rng(0xf16);
    std::vector<std::vector<sim::Time>> cases;
    std::vector<sim::Time> totals;
    for (int c = 0; c < kCases; ++c) {
        std::vector<sim::Time> slices;
        sim::Time total;
        for (int s = 0; s < kSlicesPerCase; ++s) {
            sim::Time len =
                rng.uniformTime(10_s, sim::Time::fromMinutes(10.0));
            slices.push_back(len);
            total += len;
        }
        cases.push_back(std::move(slices));
        totals.push_back(total);
    }

    harness::TextTable table(
        {"lambda", "mean reduction ratio", "model lambda/(1+lambda)"});
    std::vector<std::pair<std::string, double>> bars;
    for (int lambda = 1; lambda <= 5; ++lambda) {
        double sum = 0.0;
        for (int c = 0; c < kCases; ++c) {
            double base = runCase(cases[c], lambda, false, totals[c]);
            double leased = runCase(cases[c], lambda, true, totals[c]);
            if (base > 0.0) sum += 1.0 - leased / base;
        }
        double mean = sum / kCases;
        bars.emplace_back("lambda=" + std::to_string(lambda), mean);
        table.addRow({std::to_string(lambda),
                      harness::TextTable::fmt(mean, 2),
                      harness::TextTable::fmt(
                          static_cast<double>(lambda) / (1.0 + lambda),
                          2)});
        std::cerr << "[fig12] lambda=" << lambda << " done\n";
    }
    std::cout << harness::barChart(bars, "reduction ratio", 1.0) << "\n";
    std::cout << table.toString();
    std::cout << "\nLarger lambda -> higher reduction, but also a higher "
                 "misjudgment penalty for legitimate work (§7.5).\n";
    return 0;
}
