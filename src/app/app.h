#ifndef LEASEOS_APP_APP_H
#define LEASEOS_APP_APP_H

/**
 * @file
 * Base class for app behaviour models.
 *
 * Each app in src/apps/ subclasses App and implements start(): registering
 * with the ActivityManager, acquiring resources, scheduling its behaviour
 * loop through the pause-aware AppProcess. Subclasses model a specific
 * real-world app's documented resource-usage pattern (buggy or normal).
 */

#include <string>

#include "app/app_context.h"
#include "app/app_process.h"

namespace leaseos::app {

/**
 * A simulated app: identity, process, and behaviour entry points.
 */
class App
{
  public:
    App(AppContext &ctx, Uid uid, std::string name)
        : ctx_(ctx), process_(ctx.sim, ctx.cpu, uid, name),
          name_(std::move(name))
    {
        ctx_.activityManager().registerApp(uid, name_);
    }

    virtual ~App() = default;
    App(const App &) = delete;
    App &operator=(const App &) = delete;

    /** Install the app's behaviour into the simulation. */
    virtual void start() = 0;

    /**
     * Graceful stop; default kills the process. Subclasses release their
     * resources first and call App::stop() last — in checked builds that
     * is where the teardown-balance invariant fires (an app must not exit
     * while it still holds wakelocks, GPS requests, or sensor listeners).
     */
    virtual void stop();

    Uid uid() const { return process_.uid(); }
    const std::string &name() const { return name_; }
    bool processAlive() const { return process_.alive(); }

  protected:
    /** Note a severe exception the app raised (feeds generic utility). */
    void
    throwSevere()
    {
        ctx_.exceptions().noteException(uid(),
                                        os::ExceptionSeverity::Severe);
    }

    /** Note a UI refresh the app performed. */
    void uiUpdate() { ctx_.activityManager().noteUiUpdate(uid()); }

    AppContext &ctx_;
    AppProcess process_;

  private:
    std::string name_;
};

} // namespace leaseos::app

#endif // LEASEOS_APP_APP_H
