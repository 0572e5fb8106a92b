#include "apps/normal/generic_apps.h"

namespace leaseos::apps {

using sim::operator""_ms;
using sim::operator""_s;
using sim::operator""_min;

const char *
genericKindName(GenericKind kind)
{
    switch (kind) {
      case GenericKind::Video: return "video";
      case GenericKind::Browser: return "browser";
      case GenericKind::Game: return "game";
      case GenericKind::Music: return "music";
      case GenericKind::News: return "news";
      case GenericKind::Social: return "social";
    }
    return "?";
}

GenericInteractiveApp::GenericInteractiveApp(app::AppContext &ctx, Uid uid,
                                             GenericKind kind,
                                             std::string name)
    : App(ctx, uid, std::move(name)), kind_(kind)
{
}

void
GenericInteractiveApp::start()
{
    ctx_.user.setInteractionHandler(uid(), [this] { onInteraction(); });
    ctx_.activityManager().addForegroundListener(
        [this](Uid fg) { onForegroundChange(fg); });

    if (kind_ == GenericKind::News || kind_ == GenericKind::Social) {
        ctx_.alarmManager().setAlarm(
            uid(), 5_min + ctx_.rng.uniformTime(sim::Time::zero(), 2_min),
            true, [this] { backgroundSync(); });
    }
    if (kind_ == GenericKind::Music) {
        // Background playback holds a (legitimate) long-lived wakelock.
        playbackLock_ = ctx_.powerManager().newWakeLock(
            uid(), os::WakeLockType::Partial, name() + ":playback");
        ctx_.powerManager().acquire(playbackLock_);
        ctx_.audio().setPlaying(uid(), true);
        streamTick();
    }
}

void
GenericInteractiveApp::stop()
{
    stopped_ = true;
    if (kind_ == GenericKind::Music) {
        ctx_.audio().setPlaying(uid(), false);
        ctx_.powerManager().destroy(playbackLock_);
    }
    if (sensor_ != os::kInvalidToken)
        ctx_.sensorManager().unregisterListener(sensor_);
    App::stop();
}

void
GenericInteractiveApp::onForegroundChange(Uid fg)
{
    if (stopped_) return;
    bool now_fg = fg == uid();
    if (now_fg == foreground_) return;
    foreground_ = now_fg;

    if (kind_ == GenericKind::Game) {
        // Games grab sensors while played and drop them when left.
        if (foreground_ && sensor_ == os::kInvalidToken) {
            sensor_ = ctx_.sensorManager().registerListener(
                uid(), power::SensorType::Accelerometer, 100_ms, nullptr);
        } else if (!foreground_ && sensor_ != os::kInvalidToken) {
            ctx_.sensorManager().unregisterListener(sensor_);
            sensor_ = os::kInvalidToken;
        }
    }
    if (kind_ == GenericKind::Video && foreground_) {
        ctx_.audio().setPlaying(uid(), true);
        streamTick();
    }
    if (kind_ == GenericKind::Video && !foreground_) {
        ctx_.audio().setPlaying(uid(), false);
    }
    if ((kind_ == GenericKind::Game || kind_ == GenericKind::Video) &&
        foreground_) {
        renderTick();
    }
}

void
GenericInteractiveApp::renderTick()
{
    // Games and players repaint continuously while on screen — the UI
    // evidence that keeps their sensor/stream leases obviously useful.
    if (stopped_ || !foreground_) return;
    uiUpdate();
    process_.post(1_s, [this] { renderTick(); });
}

void
GenericInteractiveApp::onInteraction()
{
    if (stopped_) return;
    // The canonical short-held wakelock: a fresh kernel object per burst,
    // released and destroyed when the burst's work completes.
    os::TokenId lock = ctx_.powerManager().newWakeLock(
        uid(), os::WakeLockType::Partial, name() + ":burst");
    ctx_.powerManager().acquire(lock);

    uiUpdate();
    if (kind_ == GenericKind::Browser || kind_ == GenericKind::Social) {
        ctx_.network.httpRequest(uid(), "cdn.example",
                                 ctx_.rng.uniformInt(20000, 300000),
                                 [](env::NetResult) {});
    }
    // Work scales with the hold: the lock is busy for ~a third of its
    // life — the well-utilised pattern LeaseOS must keep renewing.
    sim::Time hold = ctx_.rng.uniformTime(1_s, 6_s);
    double load = kind_ == GenericKind::Game ? 2.0 : 0.8;
    process_.computeScaled(load, hold / 3.0);
    process_.post(hold, [this, lock] {
        ctx_.powerManager().release(lock);
        ctx_.powerManager().destroy(lock);
    });
}

void
GenericInteractiveApp::backgroundSync()
{
    if (stopped_) return;
    os::TokenId lock = ctx_.powerManager().newWakeLock(
        uid(), os::WakeLockType::Partial, name() + ":sync");
    ctx_.powerManager().acquire(lock);
    process_.computeScaled(0.6, 300_ms);
    ctx_.network.httpRequest(
        uid(), "feed.example", 60000, [this, lock](env::NetResult) {
            process_.postNow([this, lock] {
                ctx_.powerManager().release(lock);
                ctx_.powerManager().destroy(lock);
            });
        });
    ctx_.alarmManager().setAlarm(
        uid(), 10_min + ctx_.rng.uniformTime(sim::Time::zero(), 5_min),
        true, [this] { backgroundSync(); });
}

void
GenericInteractiveApp::streamTick()
{
    if (stopped_) return;
    if (kind_ == GenericKind::Video && !foreground_) return;
    ctx_.network.httpRequest(uid(), "stream.example",
                             kind_ == GenericKind::Video ? 1200000 : 300000,
                             [](env::NetResult) {});
    process_.compute(kind_ == GenericKind::Video ? 0.25 : 0.08, 10_s);
    process_.post(10_s, [this] { streamTick(); });
}

} // namespace leaseos::apps
