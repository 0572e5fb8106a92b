#ifndef LEASEOS_OS_ALARM_MANAGER_SERVICE_H
#define LEASEOS_OS_ALARM_MANAGER_SERVICE_H

/**
 * @file
 * RTC alarms (android AlarmManagerService analog).
 *
 * Wakeup alarms pull the CPU out of deep sleep for a short wake window so
 * the app can run (typically to acquire a wakelock and sync). Doze defers
 * background alarms; the gate hook implements that.
 */

#include <functional>
#include <map>

#include "os/binder.h"
#include "os/service.h"

namespace leaseos::os {

/**
 * One-shot (re-armable) alarm scheduling with a defer gate.
 */
class AlarmManagerService : public Service
{
  public:
    /** CPU wake window granted to a firing wakeup alarm. */
    static constexpr sim::Time kWakeWindow = sim::Time::fromSeconds(2.0);

    /** Re-check period for alarms deferred by the gate. */
    static constexpr sim::Time kDeferRetry = sim::Time::fromMinutes(5.0);

    AlarmManagerService(sim::Simulator &sim, power::CpuModel &cpu,
                        TokenAllocator &tokens);

    /**
     * Schedule @p callback after @p delay. A wakeup alarm opens a CPU wake
     * window before running the callback; a non-wakeup alarm fires only
     * while the CPU happens to be awake (it waits for wake otherwise).
     * The alarm holds a binder token until it fires.
     */
    void setAlarm(Uid uid, sim::Time delay, bool wakeup,
                  std::function<void()> callback);

    /**
     * Doze gate: alarms whose uid the gate rejects are postponed and
     * re-tried every kDeferRetry. Pass nullptr to clear.
     */
    void setGate(std::function<bool(Uid)> gate);

  private:
    struct Alarm {
        Uid uid;
        bool wakeup;
        std::function<void()> callback;
    };

    void fire(TokenId token);

    TokenAllocator &tokens_;
    std::map<TokenId, Alarm> alarms_;
    std::function<bool(Uid)> gate_;
};

} // namespace leaseos::os

#endif // LEASEOS_OS_ALARM_MANAGER_SERVICE_H
