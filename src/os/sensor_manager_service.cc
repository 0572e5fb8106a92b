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
    for (const auto &[token, reg] : records_)
        if (reg.enabled) totals_[reg.uid].registeredSeconds += dt;
}

void
SensorManagerService::apply()
{
    common::InlineVec<std::pair<power::SensorType, Uid>, 8> uses;
    sweepOwners([&](TokenId token, SensorRegistration &reg, bool wasEnabled) {
        uses.emplace_back(reg.type, reg.uid);
        if (!wasEnabled) scheduleTick(token, reg.rate);
    });
    sensors_.setUses(uses.span());
}

void
SensorManagerService::deliver(SensorRegistration &reg)
{
    ++totals_[reg.uid].events;
    if (reg.listener) {
        cpu_.runWorkFor(reg.uid, 0.2, sim::Time::fromMillis(1));
        reg.listener->onSensorEvent(reg.type,
                                    readingFn_(reg.type, sim_.now()));
    }
}

} // namespace leaseos::os
