#ifndef LEASEOS_APPS_BUGGY_KONTALK_H
#define LEASEOS_APPS_BUGGY_KONTALK_H

/**
 * @file
 * Kontalk model (Case II, §2.1; Fig. 3; Table 5 row "Kontalk").
 *
 * Issue #143: the message service acquires a wakelock in onCreate and only
 * releases it in onDestroy, instead of releasing once authentication
 * completes. The CPU is forced to stay awake for the whole service
 * lifetime doing almost nothing → Long-Holding with ultralow utilisation.
 */

#include "app/app.h"
#include "os/binder.h"

namespace leaseos::apps {

/**
 * Buggy Kontalk message service.
 */
class Kontalk : public app::App
{
  public:
    static constexpr const char *kServer = "xmpp.kontalk.example";

    Kontalk(app::AppContext &ctx, Uid uid);

    void start() override;
    void stop() override;

  private:
    void keepalive();

    os::TokenId wakeLock_ = os::kInvalidToken;
    bool stopped_ = false;
};

} // namespace leaseos::apps

#endif // LEASEOS_APPS_BUGGY_KONTALK_H
