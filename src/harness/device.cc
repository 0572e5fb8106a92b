#include "harness/device.h"

#include "sim/state_digest.h"

namespace leaseos::harness {

namespace {

/** Period of the checked-build lease-table and energy audits. */
constexpr sim::Time kCheckedAuditPeriod = sim::Time::fromSeconds(10.0);

} // namespace

const char *
mitigationModeName(MitigationMode m)
{
    switch (m) {
      case MitigationMode::None: return "w/o lease";
      case MitigationMode::LeaseOS: return "LeaseOS";
      case MitigationMode::Doze: return "Doze";
      case MitigationMode::DozeAggressive: return "Doze*";
      case MitigationMode::DefDroid: return "DefDroid";
      case MitigationMode::OneShotThrottle: return "Throttle";
    }
    return "?";
}

Device::Device(DeviceConfig config)
    : config_(std::move(config)), rng_(config_.seed)
{
    accountant_ = std::make_unique<power::EnergyAccountant>(sim_);
    cpu_ = std::make_unique<power::CpuModel>(sim_, *accountant_,
                                             config_.profile);
    if (config_.dvfsEnabled) cpu_->setDvfsEnabled(true);
    screen_ = std::make_unique<power::ScreenModel>(sim_, *accountant_,
                                                   config_.profile);
    gps_ = std::make_unique<power::GpsModel>(sim_, *accountant_,
                                             config_.profile);
    radio_ = std::make_unique<power::RadioModel>(sim_, *accountant_,
                                                 config_.profile);
    sensors_ = std::make_unique<power::SensorModel>(sim_, *accountant_,
                                                    config_.profile);
    audio_ = std::make_unique<power::AudioModel>(sim_, *accountant_,
                                                 config_.profile);
    bluetooth_ = std::make_unique<power::BluetoothModel>(
        sim_, *accountant_, config_.profile);
    battery_ = std::make_unique<power::Battery>(*accountant_,
                                                config_.profile);
    profiler_ = std::make_unique<power::PowerProfiler>(sim_, *accountant_);

    server_ = std::make_unique<os::SystemServer>(
        sim_, *cpu_, *screen_, *gps_, *radio_, *sensors_, *audio_,
        *bluetooth_, *accountant_);

    network_ =
        std::make_unique<env::NetworkEnvironment>(sim_, *radio_, rng_);
    gpsEnv_ = std::make_unique<env::GpsEnvironment>(sim_, *gps_);
    motion_ = std::make_unique<env::MotionModel>(sim_);
    user_ = std::make_unique<env::UserModel>(
        sim_, server_->activityManager(), server_->displayManager(),
        *motion_, rng_);

    // Wire environment providers into services.
    server_->locationManager().setPositionFn(
        [this](sim::Time t) { return gpsEnv_->positionAt(t); });
    server_->sensorManager().setReadingFn(
        [this](power::SensorType type, sim::Time t) {
            return motion_->reading(type, t);
        });

    switch (config_.mode) {
      case MitigationMode::None:
        break;
      case MitigationMode::LeaseOS:
        leaseos_ = std::make_unique<lease::LeaseOsRuntime>(
            sim_, *cpu_, *radio_, *server_, config_.leasePolicy);
        break;
      case MitigationMode::Doze:
        doze_ = std::make_unique<mitigation::DozeController>(
            sim_, *server_, *motion_);
        break;
      case MitigationMode::DozeAggressive:
        doze_ = std::make_unique<mitigation::DozeController>(
            sim_, *server_, *motion_, true);
        break;
      case MitigationMode::DefDroid:
        defdroid_ = std::make_unique<mitigation::DefDroidController>(
            sim_, *server_);
        break;
      case MitigationMode::OneShotThrottle:
        throttler_ = std::make_unique<mitigation::OneShotThrottler>(
            sim_, *server_);
        break;
    }

    context_ = std::make_unique<app::AppContext>(app::AppContext{
        sim_, *cpu_, *server_, *network_, *gpsEnv_, *motion_, *user_,
        rng_, config_.profile,
        leaseos_ ? &leaseos_->manager() : nullptr});

#if defined(LEASEOS_CHECKED)
    if (config_.checkedOracle) {
        oracle_ = std::make_unique<analysis::InvariantOracle>(
            analysis::InvariantOracle::FailMode::Abort);
        oracle_->install();
    }
#endif
}

Device::~Device()
{
    if (oracle_) {
        // Last chance to catch drift the periodic audit missed.
        auditInvariants(*oracle_);
        oracle_->uninstall();
    }
}

void
Device::start()
{
    if (started_) return;
    started_ = true;
    profiler_->start();
    if (doze_) doze_->start();
    if (defdroid_) defdroid_->start();
    if (throttler_) throttler_->start();
    for (auto &app : apps_) app->start();
    if (oracle_) {
        auditTick_ = sim_.schedulePeriodicScoped(
            kCheckedAuditPeriod,
            [this] { auditInvariants(*oracle_); });
    }
}

std::uint64_t
Device::stateDigest() const
{
    sim::StateDigest d;
    d.u8(static_cast<std::uint8_t>(config_.mode));
    d.u64(config_.seed);
    d.str(config_.profile.name);
    d.u8(config_.dvfsEnabled ? 1 : 0);
    d.u64(apps_.size());

    sim_.digestState(d);
    rng_.digestState(d);
    accountant_->digestState(d);
    battery_->digestState(d);
    cpu_->digestState(d);
    screen_->digestState(d);
    gps_->digestState(d);
    radio_->digestState(d);
    sensors_->digestState(d);
    audio_->digestState(d);
    bluetooth_->digestState(d);
    profiler_->digestState(d);
    if (leaseos_) leaseos_->manager().digestState(d);

    // Identity and liveness only: app behaviour state lives in closures.
    for (const auto &app : apps_) {
        d.u32(static_cast<std::uint32_t>(app->uid()));
        d.str(app->name());
        d.u8(app->processAlive() ? 1 : 0);
    }
    return d.value();
}

void
Device::auditInvariants(analysis::InvariantOracle &oracle)
{
    oracle.auditEnergy(sim_.now(), *accountant_, *battery_);
    oracle.auditServiceTokens(sim_.now(), *server_);
    if (leaseos_)
        oracle.auditLeaseTable(sim_, leaseos_->manager().table(),
                               server_->tokens());
}

} // namespace leaseos::harness
