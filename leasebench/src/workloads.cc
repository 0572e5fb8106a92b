#include "workloads.h"

#include <memory>

#include "apps/normal/generic_apps.h"
#include "apps/registry.h"
#include "harness/experiment.h"

namespace leasebench {

using namespace leaseos;

namespace {

/**
 * Glance cadence for local hour-of-day @p local (0..23): daytime glances
 * are frequent and long, night ones rare and brief. Same cadence table as
 * bench_fleet's long-run script.
 */
void
glanceCadence(int local, long &intervalSec, long &lengthSec)
{
    bool day = local >= 7 && local < 23;
    intervalSec = day ? 30 + 10 * (local % 5)   // 30..70 s
                      : 180 + 60 * (local % 4); // 3..6 min
    lengthSec = day ? 8 + local % 7 : 3;        // 8..14 s vs 3 s
}

/**
 * bench_fleet's hour-granular diurnal cycle: every virtual hour the glance
 * script is re-tuned to the cadence of the device's local time of day
 * (virtual hour + @p phase, mod 24).
 */
void
installDiurnalScript(harness::Device &d, int phase)
{
    struct Cycle {
        sim::PeriodicHandle glances;
        sim::PeriodicHandle retune;
    };
    auto cycle = std::make_shared<Cycle>();
    auto tune = [&d, cycle, phase] {
        int hour =
            static_cast<int>(d.simulator().now().seconds() / 3600.0);
        long interval = 0;
        long length = 0;
        glanceCadence((phase + hour) % 24, interval, length);
        cycle->glances = harness::installGlanceScript(
            d, sim::Time::fromSeconds(static_cast<double>(interval)),
            sim::Time::fromSeconds(static_cast<double>(length)));
    };
    tune();
    cycle->retune = d.simulator().schedulePeriodicScoped(
        sim::Time::fromMinutes(60.0), tune);
}

constexpr int kInteractiveApps = 30;

/** The Fig. 13 "use 30 apps" device: 30 generic apps, switched every
 *  50 s, in one user session that spans the whole horizon. */
harness::RunSpec
interactiveSpec(std::size_t, MitigationMode mode, sim::Time horizon)
{
    static const apps::GenericKind kinds[] = {
        apps::GenericKind::Video, apps::GenericKind::Browser,
        apps::GenericKind::Game,  apps::GenericKind::Music,
        apps::GenericKind::News,  apps::GenericKind::Social};
    harness::RunSpec spec;
    spec.name = std::string("30 apps / ") + harness::mitigationModeName(mode);
    spec.config.mode = mode;
    spec.duration = horizon;
    for (int i = 0; i < kInteractiveApps; ++i) {
        apps::GenericKind kind = kinds[i % 6];
        std::string name = std::string(apps::genericKindName(kind)) + "-" +
                           std::to_string(i / 6);
        spec.withApp([kind, name](harness::Device &d) -> app::App & {
            return d.install<apps::GenericInteractiveApp>(kind, name);
        });
    }
    spec.withPostStart([horizon](harness::Device &d) {
        std::vector<Uid> uids;
        for (const auto &a : d.apps()) uids.push_back(a->uid());
        d.user().setAppSwitchInterval(sim::Time::fromSeconds(50.0));
        d.user().scheduleSession(sim::Time::fromSeconds(5.0),
                                 horizon - sim::Time::fromSeconds(60.0),
                                 uids);
    });
    return spec;
}

/** The paper's Table-5 cell for app @p app. */
harness::RunSpec
table5Spec(std::size_t app, MitigationMode mode, sim::Time horizon)
{
    harness::MitigationRunOptions opt;
    opt.duration = horizon;
    return harness::mitigationCellSpec(apps::table5Specs()[app], mode, opt);
}

/** bench_fleet's long-run settings: 10 s profiler sampling and the
 *  hour-granular diurnal glance cycle, phase-shifted per app. */
harness::RunSpec
fleetSpec(std::size_t app, MitigationMode mode, sim::Time horizon)
{
    harness::RunSpec run = table5Spec(app, mode, horizon);
    run.userGlances = false;
    run.config.profilerPeriod = sim::Time::fromSeconds(10.0);
    int phase = static_cast<int>(app % 24);
    run.withPostStart(
        [phase](harness::Device &d) { installDiurnalScript(d, phase); });
    return run;
}

} // namespace

harness::RunSpec
Workload::spec(std::size_t k, std::uint64_t baseSeed) const
{
    harness::RunSpec run = build(group(k), modes[modeIndex(k)], horizon);
    run.config.seed = harness::deriveSeed(
        baseSeed, static_cast<std::uint64_t>(round(k) * groups + group(k)));
    return run;
}

bool
findWorkload(const std::string &name, bool smoke, Workload &out)
{
    const std::vector<MitigationMode> paired = {MitigationMode::None,
                                                MitigationMode::LeaseOS};
    Workload w;
    w.name = name;
    if (name == "table5_30min") {
        w.horizon = sim::Time::fromMinutes(smoke ? 3.0 : 30.0);
        w.slice = sim::Time::fromMinutes(1.0);
        w.groups = appCount();
        w.modes = {MitigationMode::None, MitigationMode::LeaseOS,
                   MitigationMode::DozeAggressive, MitigationMode::DefDroid};
        w.table5Apps = true;
        w.build = table5Spec;
    } else if (name == "fleet_4day") {
        w.horizon = sim::Time::fromHours(smoke ? 2.0 : 96.0);
        w.slice = sim::Time::fromMinutes(smoke ? 10.0 : 60.0);
        w.groups = appCount();
        w.modes = paired;
        w.table5Apps = true;
        w.build = fleetSpec;
    } else if (name == "interactive_30apps") {
        w.horizon = sim::Time::fromHours(smoke ? 0.25 : 0.5);
        w.slice = sim::Time::fromMinutes(5.0);
        w.groups = 10;
        w.modes = paired;
        w.build = interactiveSpec;
    } else {
        return false;
    }
    out = std::move(w);
    return true;
}

const std::string &
appKey(std::size_t index)
{
    return apps::table5Specs()[index].key;
}

std::size_t
appCount()
{
    return apps::table5Specs().size();
}

} // namespace leasebench
