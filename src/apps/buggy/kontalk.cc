#include "apps/buggy/kontalk.h"

namespace leaseos::apps {

using sim::operator""_ms;
using sim::operator""_s;

Kontalk::Kontalk(app::AppContext &ctx, Uid uid) : App(ctx, uid, "Kontalk")
{
}

void
Kontalk::start()
{
    // The bug: acquire in onCreate...
    wakeLock_ = ctx_.powerManager().newWakeLock(
        uid(), os::WakeLockType::Partial, "Kontalk:MessageCenter");
    ctx_.powerManager().acquire(wakeLock_);

    // ...authenticate with the server (quick), then never release.
    ctx_.network.httpRequest(uid(), kServer, 8000,
                             [this](env::NetResult) {
                                 process_.postNow([this] { keepalive(); });
                             });
}

void
Kontalk::keepalive()
{
    if (stopped_) return;
    // Tiny periodic ping: well under 1 % CPU utilisation of the forced
    // awake time — the Fig. 3 signature.
    process_.computeScaled(0.5, 25_ms);
    process_.post(60_s, [this] { keepalive(); });
}

void
Kontalk::stop()
{
    stopped_ = true;
    // onDestroy is the only release path.
    ctx_.powerManager().release(wakeLock_);
    ctx_.powerManager().destroy(wakeLock_);
    App::stop();
}

} // namespace leaseos::apps
