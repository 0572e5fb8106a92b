#include "harness/scenario_session.h"

namespace leaseos::harness {

ScenarioSession::ScenarioSession(const RunSpec &spec,
                                 const DeviceConfig &config)
    : spec_(&spec), config_(config)
{
    // Sinks first: components cache MetricRegistry::current() at
    // construction, so the registry must be installed before the Device
    // is built.
    telemetry_ = std::make_unique<TelemetryScope>(spec);
    device_ = std::make_unique<Device>(config_);

    for (const auto &fn : spec.setup) fn(*device_);

    uids_.reserve(spec.apps.size());
    for (const auto &installFn : spec.apps)
        uids_.push_back(installFn(*device_).uid());

    if (spec.userGlances)
        glanceTick_ = installGlanceScript(*device_, spec.glanceInterval,
                                          spec.glanceLength);

    device_->start();
    for (const auto &fn : spec.postStart) fn(*device_);
}

ScenarioSession::~ScenarioSession()
{
    // An abandoned session (error path) tears down in dependency order:
    // glance handle before the simulator it points into.
    glanceTick_.cancel();
    device_.reset();
    telemetry_.reset();
}

void
ScenarioSession::advanceTo(sim::Time target)
{
    if (target > spec_->duration) target = spec_->duration;
    auto &sim = device_->simulator();
    sim::Time every = spec_->checkpointEvery;
    while (sim.now() < target) {
        sim::Time next = target;
        if (every.nanos() > 0) {
            // Next multiple of `every` strictly after now.
            std::int64_t k = sim.now().nanos() / every.nanos() + 1;
            sim::Time boundary = sim::Time::fromNanos(k * every.nanos());
            if (boundary < next) next = boundary;
        }
        sim.run(next);
        if (every.nanos() > 0 && sim.now().nanos() % every.nanos() == 0)
            checkpoints_.push_back(
                {sim.now().nanos(), device_->stateDigest()});
    }
}

RunResult
ScenarioSession::finish()
{
    const RunSpec &spec = *spec_;
    RunResult result;
    result.name = spec.name;
    result.seed = config_.seed;
    if (!uids_.empty())
        result.appPowerMw = device_->appPowerMw(uids_.front());
    for (Uid uid : uids_)
        result.perAppPowerMw.push_back(device_->appPowerMw(uid));
    result.systemPowerMw = device_->profiler().averageTotalPowerMw();

    if (auto *leaseos = device_->leaseos()) {
        auto &mgr = leaseos->manager();
        result.deferrals = mgr.totalDeferrals();
        result.termChecks = mgr.termChecks();
        result.leasesCreated = mgr.totalCreated();
        for (lease::BehaviorType b :
             {lease::BehaviorType::Normal, lease::BehaviorType::FrequentAsk,
              lease::BehaviorType::LongHolding,
              lease::BehaviorType::LowUtility,
              lease::BehaviorType::ExcessiveUse}) {
            std::uint64_t n = mgr.behaviorCount(b);
            if (n > 0) result.behaviorCounts[b] = n;
        }
    }

    result.probes.reserve(spec.probes.size());
    for (const auto &[name, fn] : spec.probes)
        result.probes.emplace_back(name, fn(*device_));

    result.checkpoints = std::move(checkpoints_);
    checkpoints_.clear();

    // Before the device goes: its bound metrics (channel energy, lease
    // totals) read it.
    telemetry_->finish(spec, result);

    // Tear down eagerly, before the caller's own bookkeeping: a dead
    // Device frees its whole event queue + time series.
    glanceTick_.cancel();
    device_.reset();
    telemetry_.reset();
    return result;
}

} // namespace leaseos::harness
