#include "os/alarm_manager_service.h"

#include <utility>

namespace leaseos::os {

AlarmManagerService::AlarmManagerService(sim::Simulator &sim,
                                         power::CpuModel &cpu,
                                         TokenAllocator &tokens)
    : Service(sim, cpu, "alarm"), tokens_(tokens)
{
}

void
AlarmManagerService::setAlarm(Uid uid, sim::Time delay, bool wakeup,
                              std::function<void()> callback)
{
    chargeIpc(uid, kBinderIpcLatency);
    TokenId token = tokens_.next();
    Alarm alarm;
    alarm.uid = uid;
    alarm.wakeup = wakeup;
    alarm.callback = std::move(callback);
    sim_.schedule(delay, [this, token] { fire(token); });
    alarms_.emplace(token, std::move(alarm));
}

void
AlarmManagerService::setGate(std::function<bool(Uid)> gate)
{
    gate_ = std::move(gate);
}

void
AlarmManagerService::fire(TokenId token)
{
    auto it = alarms_.find(token);
    if (it == alarms_.end()) return;
    Alarm &alarm = it->second;

    if (gate_ && !gate_(alarm.uid)) {
        // Doze deferral: postpone and re-check.
        sim_.schedule(kDeferRetry, [this, token] { fire(token); });
        return;
    }

    if (alarm.wakeup) {
        cpu_.addWakeWindow(kWakeWindow);
        auto cb = std::move(alarm.callback);
        alarms_.erase(it);
        tokens_.retire(token);
        // Run the app callback once the wake transition has completed.
        sim_.schedule(sim::Time::zero(), std::move(cb));
    } else {
        auto cb = std::move(alarm.callback);
        alarms_.erase(it);
        tokens_.retire(token);
        cpu_.notifyOnWake(std::move(cb));
    }
}

} // namespace leaseos::os
