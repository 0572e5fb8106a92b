#include "mitigation/doze.h"

namespace leaseos::mitigation {

DozeController::DozeController(sim::Simulator &sim,
                               os::SystemServer &server,
                               env::MotionModel &motion, bool aggressive)
    : sim_(sim), server_(server), motion_(motion), aggressive_(aggressive),
      screenOffSince_(sim.now())
{
}

void
DozeController::start()
{
    if (started_) return;
    started_ = true;
    screenOn_ = server_.displayManager().screenOn();
    screenOffSince_ = sim_.now();

    server_.displayManager().addStateListener([this](bool on) {
        screenOn_ = on;
        if (on) {
            // Any screen use is non-trivial activity: exit immediately.
            if (dozing_) exit();
        } else {
            screenOffSince_ = sim_.now();
        }
    });
    motion_.addMotionListener([this] {
        if (dozing_) exit();
    });

    if (aggressive_) forceEnter();
    scheduleIdleCheck();
}

void
DozeController::scheduleIdleCheck()
{
    sim_.schedule(sim::Time::fromMinutes(1.0), [this] { idleCheck(); });
}

void
DozeController::idleCheck()
{
    if (!dozing_) {
        sim::Time needed = aggressive_ ? kAggressiveReentry : kIdleThreshold;
        bool idle_long_enough = !screenOn_ && motion_.stationary() &&
            sim_.now() - screenOffSince_ >= needed &&
            motion_.stillFor() >= needed;
        if (idle_long_enough) enter();
    }
    scheduleIdleCheck();
}

void
DozeController::forceEnter()
{
    if (!dozing_) enter();
}

bool
DozeController::allowed(Uid uid) const
{
    if (!dozing_ || maintenance_) return true;
    // System components keep running; all apps count as background while
    // the device is unused.
    if (uid < kFirstAppUid) return true;
    return uid == server_.activityManager().foreground();
}

void
DozeController::applyFilters()
{
    auto filter = [this](Uid uid) { return allowed(uid); };
    // Doze defers background CPU/network activity but never blanks a
    // screen an app is forcing on — full wakelocks pass through (which
    // is why Doze barely helps the Table 5 screen rows).
    server_.powerManager().setGlobalFilter(
        [this](Uid uid, os::WakeLockType type) {
            return type == os::WakeLockType::Full || allowed(uid);
        });
    server_.wifiManager().setGlobalFilter(filter);
    server_.locationManager().setGlobalFilter(filter);
    server_.sensorManager().setGlobalFilter(filter);
    server_.alarmManager().setGate(filter);
}

void
DozeController::clearFilters()
{
    server_.powerManager().clearGlobalFilter();
    server_.wifiManager().setGlobalFilter(nullptr);
    server_.locationManager().setGlobalFilter(nullptr);
    server_.sensorManager().setGlobalFilter(nullptr);
    server_.alarmManager().setGate(nullptr);
}

void
DozeController::enter()
{
    dozing_ = true;
    maintenance_ = false;
    applyFilters();
    sim_.schedule(kMaintenanceInterval, [this] { openMaintenanceWindow(); });
}

void
DozeController::exit()
{
    if (!dozing_) return;
    dozing_ = false;
    maintenance_ = false;
    clearFilters();
}

void
DozeController::openMaintenanceWindow()
{
    if (!dozing_) return;
    maintenance_ = true;
    // Filters consult maintenance_; poke services to re-evaluate.
    server_.powerManager().refilter();
    server_.wifiManager().refilter();
    server_.locationManager().refilter();
    server_.sensorManager().refilter();
    sim_.schedule(kMaintenanceWindow, [this] { closeMaintenanceWindow(); });
}

void
DozeController::closeMaintenanceWindow()
{
    if (!dozing_) return;
    maintenance_ = false;
    server_.powerManager().refilter();
    server_.wifiManager().refilter();
    server_.locationManager().refilter();
    server_.sensorManager().refilter();
    sim_.schedule(kMaintenanceInterval, [this] { openMaintenanceWindow(); });
}

} // namespace leaseos::mitigation
