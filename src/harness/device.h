#ifndef LEASEOS_HARNESS_DEVICE_H
#define LEASEOS_HARNESS_DEVICE_H

/**
 * @file
 * A complete simulated phone: hardware models, OS services, environments,
 * optional mitigation (LeaseOS / Doze / DefDroid / one-shot throttling),
 * power profiling, and installed apps.
 *
 * This is the top-level object every experiment, example, and bench
 * builds. The mitigation mode mirrors the paper's experimental arms in
 * Table 5; MitigationMode::None is the vanilla-Android baseline ("a flag
 * in LeaseOS to completely turn off the lease service", §7.1).
 */

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <cstdint>

#include "analysis/invariants.h"
#include "app/app.h"
#include "app/app_context.h"
#include "env/gps_environment.h"
#include "env/motion_model.h"
#include "env/network_environment.h"
#include "env/user_model.h"
#include "lease/leaseos_runtime.h"
#include "power/bluetooth_model.h"
#include "mitigation/defdroid.h"
#include "mitigation/doze.h"
#include "mitigation/throttle.h"
#include "os/system_server.h"
#include "power/battery.h"
#include "power/power_profiler.h"

namespace leaseos::harness {

/** Which runtime mitigation the device runs. */
enum class MitigationMode {
    None,            ///< vanilla ask-use-release Android
    LeaseOS,         ///< the paper's system
    Doze,            ///< stock Doze (conservative trigger)
    DozeAggressive,  ///< Doze forced on at start (Table 5 '*')
    DefDroid,        ///< holding-time throttling
    OneShotThrottle  ///< single-term time-based revocation (§7.4)
};

const char *mitigationModeName(MitigationMode m);

/**
 * Device construction parameters.
 *
 * Plain aggregate, plus fluent `with*` builders so declarative call sites
 * (RunSpec lists, benches, examples) can assemble a config inline:
 *
 *     Device dev(DeviceConfig{}
 *                    .withMode(MitigationMode::LeaseOS)
 *                    .withSeed(42));
 */
struct DeviceConfig {
    power::DeviceProfile profile = power::profiles::pixelXl();
    MitigationMode mode = MitigationMode::None;
    lease::LeasePolicy leasePolicy;
    sim::Time throttleHoldLimit = sim::Time::fromMinutes(5.0);
    std::uint64_t seed = 0x1ea5e05;
    /** Unused (nothing is sampled); kept because leasebench sets it. */
    sim::Time profilerPeriod = sim::Time::fromMillis(100);
    /**
     * Enable the §8 DVFS extension (frequency governor + adjusted
     * utilisation metrics). Off by default: the paper's base system
     * assumes constant frequency.
     */
    bool dvfsEnabled = false;
    /**
     * Whether the device installs its own Abort-mode oracle in checked
     * builds. Negative tests that deliberately corrupt device state turn
     * this off so only their Record-mode oracle sees the violation.
     * Ignored in normal builds.
     */
    bool checkedOracle = true;

    // ---- Fluent builders -----------------------------------------------

    DeviceConfig &
    withMode(MitigationMode m)
    {
        mode = m;
        return *this;
    }
    DeviceConfig &
    withProfile(power::DeviceProfile p)
    {
        profile = std::move(p);
        return *this;
    }
    DeviceConfig &
    withSeed(std::uint64_t s)
    {
        seed = s;
        return *this;
    }
    /** In-place tweak of the lease policy: `.tunePolicy([](auto &p) {...})`. */
    template <typename F>
    DeviceConfig &
    tunePolicy(F &&f)
    {
        f(leasePolicy);
        return *this;
    }
    DeviceConfig &
    withDvfs(bool enabled = true)
    {
        dvfsEnabled = enabled;
        return *this;
    }
};

/**
 * Fully-wired simulated device.
 */
class Device
{
  public:
    explicit Device(DeviceConfig config = {});
    ~Device();
    Device(const Device &) = delete;
    Device &operator=(const Device &) = delete;

    // ---- Core handles ---------------------------------------------------

    sim::Simulator &simulator() { return sim_; }
    sim::RandomSource &rng() { return rng_; }
    const power::DeviceProfile &profile() const { return config_.profile; }
    power::EnergyAccountant &accountant() { return *accountant_; }
    power::Battery &battery() { return *battery_; }
    power::PowerProfiler &profiler() { return *profiler_; }
    power::CpuModel &cpu() { return *cpu_; }
    os::SystemServer &server() { return *server_; }
    env::NetworkEnvironment &network() { return *network_; }
    env::GpsEnvironment &gpsEnv() { return *gpsEnv_; }
    env::MotionModel &motion() { return *motion_; }
    env::UserModel &user() { return *user_; }
    app::AppContext &context() { return *context_; }

    MitigationMode mode() const { return config_.mode; }

    /** Non-null only in MitigationMode::LeaseOS. */
    lease::LeaseOsRuntime *leaseos() { return leaseos_.get(); }
    mitigation::DozeController *doze() { return doze_.get(); }
    mitigation::DefDroidController *defdroid() { return defdroid_.get(); }
    mitigation::OneShotThrottler *throttler() { return throttler_.get(); }

    // ---- Apps ------------------------------------------------------------

    /** Install an app of type T (ctor: T(AppContext&, Uid, extra...)). */
    template <typename T, typename... Args>
    T &
    install(Args &&...args)
    {
        Uid uid = nextUid_++;
        auto owned =
            std::make_unique<T>(*context_, uid, std::forward<Args>(args)...);
        T &ref = *owned;
        apps_.push_back(std::move(owned));
        return ref;
    }

    /** Start every installed app (and the profiler + mitigation). */
    void start();

    const std::vector<std::unique_ptr<app::App>> &apps() const
    {
        return apps_;
    }

    /** Run the simulation forward. */
    void runFor(sim::Time span) { sim_.run(sim_.now() + span); }

    /** Average power attributed to @p uid since start() (mW). */
    double appPowerMw(Uid uid) { return profiler_->averageUidPowerMw(uid); }

    /**
     * Run the pull-style invariant audits (energy conservation, service
     * records ↔ binder tokens, lease table ↔ binder) against @p oracle
     * now. Checked builds call this periodically and at teardown through
     * the device's own oracle; tests can call it directly with a
     * Record-mode oracle in any build.
     */
    void auditInvariants(analysis::InvariantOracle &oracle);

    // ---- State digest (DESIGN.md §11) -----------------------------------

    /**
     * FNV-1a-64 over the device's explicit state — simulator clock, RNG
     * stream, every power model's integrals, lease service (LeaseOS
     * mode), and app identities — hashed in a fixed order. Equal device
     * state gives an equal digest, so it is a per-interval fingerprint
     * that must agree across job counts. OS-service tables and pending
     * events are left out.
     */
    std::uint64_t stateDigest() const;

  private:
    DeviceConfig config_;
    sim::Simulator sim_;
    sim::RandomSource rng_;

    std::unique_ptr<power::EnergyAccountant> accountant_;
    std::unique_ptr<power::CpuModel> cpu_;
    std::unique_ptr<power::ScreenModel> screen_;
    std::unique_ptr<power::GpsModel> gps_;
    std::unique_ptr<power::RadioModel> radio_;
    std::unique_ptr<power::SensorModel> sensors_;
    std::unique_ptr<power::AudioModel> audio_;
    std::unique_ptr<power::BluetoothModel> bluetooth_;
    std::unique_ptr<power::Battery> battery_;
    std::unique_ptr<power::PowerProfiler> profiler_;
    std::unique_ptr<os::SystemServer> server_;
    std::unique_ptr<env::NetworkEnvironment> network_;
    std::unique_ptr<env::GpsEnvironment> gpsEnv_;
    std::unique_ptr<env::MotionModel> motion_;
    std::unique_ptr<env::UserModel> user_;
    std::unique_ptr<app::AppContext> context_;

    std::unique_ptr<lease::LeaseOsRuntime> leaseos_;
    std::unique_ptr<mitigation::DozeController> doze_;
    std::unique_ptr<mitigation::DefDroidController> defdroid_;
    std::unique_ptr<mitigation::OneShotThrottler> throttler_;

    std::vector<std::unique_ptr<app::App>> apps_;
    Uid nextUid_ = kFirstAppUid;
    bool started_ = false;

    /** Only set in checked builds (LEASEOS_CHECKED). */
    std::unique_ptr<analysis::InvariantOracle> oracle_;
    sim::PeriodicHandle auditTick_;
};

} // namespace leaseos::harness

#endif // LEASEOS_HARNESS_DEVICE_H
