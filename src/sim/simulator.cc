#include "sim/simulator.h"

#include <memory>
#include <utility>

#include "analysis/invariants.h"
#include "sim/state_digest.h"

namespace leaseos::sim {

void
Simulator::digestState(StateDigest &d) const
{
    d.time(now_);
    d.u64(executed_);
}

void
PeriodicHandle::cancel()
{
    if (!state_ || state_->stopped) return;
    state_->stopped = true;
    if (state_->sim) state_->sim->cancel(state_->current);
}

bool
PeriodicHandle::active() const
{
    return state_ && !state_->stopped && state_->sim &&
           state_->sim->pending(state_->current);
}

PeriodicHandle
Simulator::schedulePeriodicScoped(Time period, std::function<void()> cb)
{
    // The repeating closure owns the user callback and re-schedules
    // itself; the shared PeriodicState publishes the id of the pending
    // occurrence so the handle can cancel the whole repetition at any
    // point.
    struct Repeater : std::enable_shared_from_this<Repeater> {
        std::shared_ptr<detail::PeriodicState> state;
        Time period;
        std::function<void()> cb;

        void
        fire()
        {
            if (state->stopped) return;
            cb();
            if (state->stopped) return; // cb may have cancelled the handle
            auto self = shared_from_this();
            state->current =
                state->sim->schedule(period, [self] { self->fire(); });
        }
    };
    auto state = std::make_shared<detail::PeriodicState>();
    state->sim = this;
    auto rep = std::make_shared<Repeater>();
    rep->state = state;
    rep->period = period;
    rep->cb = std::move(cb);
    state->current = schedule(period, [rep] { rep->fire(); });
    return PeriodicHandle(std::move(state));
}

Time
Simulator::run(Time until)
{
    while (!queue_.empty()) {
        Time t = queue_.nextTime();
        if (t > until) {
            now_ = until;
            return now_;
        }
        auto [when, cb] = queue_.pop();
        LEASEOS_ORACLE(noteEventDispatch(now_, when));
        now_ = when;
        ++executed_;
        cb();
    }
    // Queue drained: clamp to the requested horizon if it is finite so that
    // back-to-back runFor() calls keep advancing wall-clock style.
    if (until != Time::max() && until > now_) now_ = until;
    return now_;
}

} // namespace leaseos::sim
