#ifndef LEASEOS_APPS_NORMAL_GENERIC_APPS_H
#define LEASEOS_APPS_NORMAL_GENERIC_APPS_H

/**
 * @file
 * Parameterised well-behaved interactive apps.
 *
 * The Fig. 11 ("popular apps... games, social network, news, music") and
 * Fig. 13 ("use 10 apps / 30 apps in turn") workloads need a population of
 * ordinary apps that use resources correctly: short wakelocks around
 * interaction bursts, streaming while foreground, periodic background
 * syncs via alarms. Each interaction creates a fresh wakelock kernel
 * object (the common Android idiom), so the lease population matches the
 * paper's "most leases are short-lived" observation.
 */

#include <cstdint>
#include <string>

#include "app/app.h"
#include "os/binder.h"

namespace leaseos::apps {

/** Behaviour archetypes for the generic app population. */
enum class GenericKind {
    Video,   ///< streams a/v while foreground (YouTube)
    Browser, ///< network bursts per interaction
    Game,    ///< heavy CPU + sensors while foreground
    Music,   ///< light background audio
    News,    ///< periodic background sync via alarms
    Social   ///< interaction bursts + periodic sync
};

const char *genericKindName(GenericKind kind);

/**
 * One well-behaved app of a given archetype.
 */
class GenericInteractiveApp : public app::App
{
  public:
    GenericInteractiveApp(app::AppContext &ctx, Uid uid, GenericKind kind,
                          std::string name);

    void start() override;
    void stop() override;

    GenericKind kind() const { return kind_; }

  private:
    void onInteraction();
    void onForegroundChange(Uid fg);
    void backgroundSync();
    void streamTick();
    void renderTick();

    GenericKind kind_;
    bool foreground_ = false;
    bool stopped_ = false;
    os::TokenId sensor_ = os::kInvalidToken;
    os::TokenId playbackLock_ = os::kInvalidToken;
};

} // namespace leaseos::apps

#endif // LEASEOS_APPS_NORMAL_GENERIC_APPS_H
