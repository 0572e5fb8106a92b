#include "os/system_server.h"

namespace leaseos::os {

SystemServer::SystemServer(sim::Simulator &sim, power::CpuModel &cpu,
                           power::ScreenModel &screen, power::GpsModel &gps,
                           power::RadioModel &radio,
                           power::SensorModel &sensors,
                           power::AudioModel &audio,
                           power::BluetoothModel &bluetooth,
                           power::EnergyAccountant &accountant)
    : audio_(audio)
{
    powerManager_ =
        std::make_unique<PowerManagerService>(sim, cpu, tokens_);
    locationManager_ =
        std::make_unique<LocationManagerService>(sim, cpu, gps, tokens_);
    sensorManager_ =
        std::make_unique<SensorManagerService>(sim, cpu, sensors, tokens_);
    wifiManager_ =
        std::make_unique<WifiManagerService>(sim, cpu, radio, tokens_);
    displayManager_ =
        std::make_unique<DisplayManagerService>(sim, cpu, screen);
    alarmManager_ =
        std::make_unique<AlarmManagerService>(sim, cpu, tokens_);
    activityManager_ = std::make_unique<ActivityManagerService>(sim, cpu);
    exceptionHandler_ = std::make_unique<ExceptionNoteHandler>();
    audioSessions_ = std::make_unique<AudioSessionService>(
        sim, cpu, audio, accountant, tokens_);
    bluetoothService_ =
        std::make_unique<BluetoothService>(sim, cpu, bluetooth, tokens_);

    // Full wakelocks force the screen on via the display policy.
    powerManager_->setFullLockCallback([this](std::vector<Uid> owners) {
        displayManager_->setForcedOwners(std::move(owners));
    });
}

} // namespace leaseos::os
