#include "harness/scenario_session.h"

#include <cstdio>
#include <filesystem>
#include <string>
#include <system_error>

#include "sim/checkpoint.h"

namespace leaseos::harness {

namespace {

/** The frame's stored payload digest (header offset 24, LE). */
std::uint64_t
frameDigest(const std::vector<std::uint8_t> &blob)
{
    std::uint64_t d = 0;
    for (std::size_t i = 0; i < 8; ++i)
        d |= static_cast<std::uint64_t>(blob[24 + i]) << (8 * i);
    return d;
}

/** Run names ("w/o lease") become filesystem-safe blob stems. */
std::string
sanitizeName(const std::string &name)
{
    std::string out = name.empty() ? "run" : name;
    for (char &c : out) {
        bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                  (c >= '0' && c <= '9') || c == '-' || c == '_' ||
                  c == '.';
        if (!ok) c = '-';
    }
    return out;
}

} // namespace

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
            emitCheckpoint();
    }
}

void
ScenarioSession::emitCheckpoint()
{
    std::vector<std::uint8_t> blob = device_->saveCheckpoint();
    RunResult::CheckpointStat stat;
    stat.timeNanos = device_->simulator().now().nanos();
    stat.sizeBytes = blob.size();
    stat.digest = frameDigest(blob);
    checkpoints_.push_back(stat);
    if (!spec_->checkpointDir.empty()) {
        std::error_code ec; // best-effort, like the write warning below
        std::filesystem::create_directories(spec_->checkpointDir, ec);
        std::string path = spec_->checkpointDir + "/" +
                           sanitizeName(spec_->name) + "-ckpt-" +
                           std::to_string(checkpoints_.size() - 1) +
                           ".ckpt";
        if (!sim::writeCheckpointFile(path, blob))
            std::fprintf(stderr, "warning: cannot write checkpoint %s\n",
                         path.c_str());
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

    telemetry_->finish(spec, result);

    // Tear down eagerly, before the caller's own bookkeeping: a dead
    // Device frees its whole event queue + time series.
    glanceTick_.cancel();
    device_.reset();
    telemetry_.reset();
    return result;
}

} // namespace leaseos::harness
