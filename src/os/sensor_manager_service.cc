#include "os/sensor_manager_service.h"

#include <utility>

namespace leaseos::os {

SensorManagerService::SensorManagerService(sim::Simulator &sim,
                                           power::CpuModel &cpu,
                                           power::SensorModel &sensors,
                                           TokenAllocator &tokens)
    : ResourceService(sim, cpu, "sensor", tokens), sensors_(sensors),
      lastAdvance_(sim.now())
{
    readingFn_ = [](power::SensorType, sim::Time) { return 0.0; };
}

void
SensorManagerService::advance()
{
    sim::Time now = sim_.now();
    if (now <= lastAdvance_) {
        lastAdvance_ = now;
        return;
    }
    double dt = (now - lastAdvance_).seconds();
    for (const auto *entry : records_.live()) {
        const SensorRegistration &reg = entry->second;
        if (reg.enabled) records_.accrue(reg.uid).registeredSeconds += dt;
    }
    lastAdvance_ = now;
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
        if (enabled && !reg.enabled) {
            reg.enabled = true;
            scheduleTick(token);
        } else {
            reg.enabled = enabled;
        }
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
SensorManagerService::scheduleTick(TokenId token)
{
    SensorRegistration *reg = records_.find(token);
    if (!reg || reg->tickScheduled) return;
    reg->tickScheduled = true;
    sim_.schedule(reg->rate, [this, token] { deliverTick(token); });
}

void
SensorManagerService::deliverTick(TokenId token)
{
    SensorRegistration *reg = records_.find(token);
    if (!reg) return;
    reg->tickScheduled = false;
    if (!reg->enabled) return; // suspended: callbacks withheld
    ++records_.accrue(reg->uid).events;
    if (reg->listener) {
        cpu_.runWorkFor(reg->uid, 0.2, sim::Time::fromMillis(1));
        reg->listener->onSensorEvent(reg->type,
                                     readingFn_(reg->type, sim_.now()));
    }
    scheduleTick(token);
}

TokenId
SensorManagerService::registerListener(Uid uid, power::SensorType type,
                                       sim::Time rate,
                                       SensorEventListener *listener)
{
    chargeIpc(uid, kResourceIpcLatency);
    advance();
    TokenId token = tokens_.next();
    SensorRegistration reg;
    reg.uid = uid;
    reg.type = type;
    reg.rate = rate;
    reg.listener = listener;
    reg.live = true;
    records_.add(token, reg);
    apply();
    for (auto *l : listeners_) l->onCreated(token, uid);
    for (auto *l : listeners_) l->onAcquired(token, uid);
    return token;
}

void
SensorManagerService::unregisterListener(TokenId token)
{
    SensorRegistration *reg = records_.find(token);
    if (!reg || !reg->live) return;
    Uid uid = reg->uid;
    chargeIpc(uid, kBinderIpcLatency);
    advance();
    records_.setLive(token, false);
    apply();
    for (auto *l : listeners_) l->onReleased(token, uid);
}

void
SensorManagerService::destroy(TokenId token)
{
    const SensorRegistration *reg = records_.find(token);
    if (!reg) return;
    advance();
    Uid uid = reg->uid;
    records_.erase(token);
    tokens_.retire(token);
    apply();
    for (auto *l : listeners_) l->onDestroyed(token, uid);
}

double
SensorManagerService::registeredSeconds(Uid uid)
{
    advance();
    return records_.totals(uid).registeredSeconds;
}

} // namespace leaseos::os
