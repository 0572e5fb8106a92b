#ifndef LEASEOS_ENV_USER_MODEL_H
#define LEASEOS_ENV_USER_MODEL_H

/**
 * @file
 * Scripted user behaviour.
 *
 * Drives the screen, foreground app, activity lifecycle, and interaction
 * telemetry — the "actively use popular apps for 30 minutes, leave it
 * untouched for 30 minutes" style scripts of Fig. 11 and Fig. 13. Every
 * stochastic choice draws from the shared seeded RandomSource.
 */

#include <functional>
#include <map>
#include <vector>

#include "env/motion_model.h"
#include "os/activity_manager_service.h"
#include "os/display_manager_service.h"
#include "sim/random.h"
#include "sim/simulator.h"

namespace leaseos::env {

/**
 * Session-based user interaction generator.
 */
class UserModel
{
  public:
    UserModel(sim::Simulator &sim, os::ActivityManagerService &am,
              os::DisplayManagerService &dm, MotionModel &motion,
              sim::RandomSource &rng);

    /**
     * Schedule an active usage session: screen on, the given apps used in
     * turn (foreground + live activity + periodic interactions), device in
     * motion. After @p duration the screen goes off and the device is set
     * down (stationary).
     */
    void scheduleSession(sim::Time start, sim::Time duration,
                         std::vector<Uid> apps);

    /** How often the user pokes the foreground app during a session. */
    void setInteractionInterval(sim::Time t) { interactionInterval_ = t; }

    /** How often the user switches among the session's apps. */
    void setAppSwitchInterval(sim::Time t) { switchInterval_ = t; }

    /**
     * Per-app interaction hook: invoked on each user interaction with the
     * app in the foreground (apps use this to run their click flows).
     */
    void setInteractionHandler(Uid uid, std::function<void()> fn);

    std::uint64_t interactionCount() const { return interactions_; }

  private:
    void beginSession(sim::Time duration, std::vector<Uid> apps);
    void endSession();
    void switchApp();
    void interact();

    sim::Simulator &sim_;
    os::ActivityManagerService &am_;
    os::DisplayManagerService &dm_;
    MotionModel &motion_;
    sim::RandomSource &rng_;

    sim::Time interactionInterval_ = sim::Time::fromSeconds(6.0);
    sim::Time switchInterval_ = sim::Time::fromSeconds(90.0);

    bool active_ = false;
    sim::Time sessionEnd_;
    std::vector<Uid> sessionApps_;
    std::size_t appIndex_ = 0;
    Uid currentApp_ = kInvalidUid;
    std::map<Uid, std::function<void()>> handlers_;
    std::uint64_t interactions_ = 0;
};

} // namespace leaseos::env

#endif // LEASEOS_ENV_USER_MODEL_H
