#include "os/sensor_manager_service.h"

#include <utility>

namespace leaseos::os {

SensorManagerService::SensorManagerService(sim::Simulator &sim,
                                           power::CpuModel &cpu,
                                           power::SensorModel &sensors,
                                           TokenAllocator &tokens)
    : ResourceService(sim, cpu, "sensor", tokens), sensors_(sensors)
{
    readingFn_ = [](power::SensorType, sim::Time) { return 0.0; };
}

void
SensorManagerService::accrue(double dt)
{
    for (const auto *entry : records_.live()) {
        const SensorRegistration &reg = entry->second;
        if (reg.enabled) records_.accrue(reg.uid).registeredSeconds += dt;
    }
}

void
SensorManagerService::apply()
{
    records_.sweep([&](TokenId token, SensorRegistration &reg) {
        bool enabled = shouldEnable(reg);
        bool was_hw = hwRegs_.count(token) != 0;
        if (enabled && !was_hw) {
            sensors_.registerUse(reg.type, reg.uid);
            hwRegs_[token] = {reg.type, reg.uid};
        } else if (!enabled && was_hw) {
            sensors_.unregisterUse(reg.type, reg.uid);
            hwRegs_.erase(token);
        }
        if (enabled && !reg.enabled) scheduleTick(token, reg.rate);
        reg.enabled = enabled;
    });
    // Drop hardware registrations whose request object died.
    for (auto it = hwRegs_.begin(); it != hwRegs_.end();) {
        if (!records_.find(it->first)) {
            sensors_.unregisterUse(it->second.first, it->second.second);
            it = hwRegs_.erase(it);
        } else {
            ++it;
        }
    }
}

void
SensorManagerService::deliver(SensorRegistration &reg)
{
    ++records_.accrue(reg.uid).events;
    if (reg.listener) {
        cpu_.runWorkFor(reg.uid, 0.2, sim::Time::fromMillis(1));
        reg.listener->onSensorEvent(reg.type,
                                    readingFn_(reg.type, sim_.now()));
    }
}

} // namespace leaseos::os
