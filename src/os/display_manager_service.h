#ifndef LEASEOS_OS_DISPLAY_MANAGER_SERVICE_H
#define LEASEOS_OS_DISPLAY_MANAGER_SERVICE_H

/**
 * @file
 * Display policy (android DisplayManager/PowerManager display part).
 *
 * The panel is lit when the user wants it on (UserModel) OR an enabled
 * full wakelock forces it. Attribution: user-initiated screen time is
 * system power; forced screen time is billed to the forcing apps — that is
 * the 500+ mW signal in the ConnectBot/Standup Timer rows of Table 5.
 */

#include <functional>
#include <vector>

#include "os/service.h"
#include "power/screen_model.h"

namespace leaseos::os {

/**
 * Screen-state policy combining user intent and full wakelocks.
 */
class DisplayManagerService : public Service
{
  public:
    DisplayManagerService(sim::Simulator &sim, power::CpuModel &cpu,
                          power::ScreenModel &screen);

    /** User pressed power button / lock timeout (from env::UserModel). */
    void userSetScreen(bool on);

    /** Enabled full-wakelock owners (wired from PowerManagerService). */
    void setForcedOwners(std::vector<Uid> owners);

    bool screenOn() const { return screen_.isOn(); }

    /** Screen state change notification (doze idle detection). */
    void addStateListener(std::function<void(bool on)> fn);

  private:
    void apply();

    power::ScreenModel &screen_;
    bool userOn_ = false;
    std::vector<Uid> forcedOwners_;
    std::vector<std::function<void(bool)>> stateListeners_;
    bool lastOn_ = false;
};

} // namespace leaseos::os

#endif // LEASEOS_OS_DISPLAY_MANAGER_SERVICE_H
