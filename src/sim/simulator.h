#ifndef LEASEOS_SIM_SIMULATOR_H
#define LEASEOS_SIM_SIMULATOR_H

/**
 * @file
 * The discrete-event simulator driving a simulated device.
 *
 * Every simulated subsystem (power model, OS services, apps, environments,
 * the lease manager) schedules work through one Simulator instance. Virtual
 * time only advances when the event at the head of the queue fires, so a
 * 30-minute experiment completes in milliseconds of wall time while
 * preserving exact timing relationships.
 *
 * Thread-safety: a Simulator (and everything scheduled on it) belongs to
 * exactly one thread. Concurrency is achieved by running *independent*
 * Simulator/Device instances on different threads (see harness/runner.h),
 * never by sharing one instance.
 */

#include <cstdint>
#include <functional>
#include <memory>

#include "sim/event_queue.h"
#include "sim/time.h"

namespace leaseos::sim {

class StateDigest;
class Simulator;

namespace detail {
/** Shared bookkeeping between a repeating event and its handle. */
struct PeriodicState {
    Simulator *sim = nullptr;
    EventId current = kInvalidEventId;
    bool stopped = false;
};
} // namespace detail

/**
 * RAII handle to a repeating event scheduled with schedulePeriodicScoped().
 *
 * Destroying (or cancel()ing) the handle stops the repetition, including
 * the occurrence currently pending in the queue. Default-constructed
 * handles are inert.
 */
class PeriodicHandle
{
  public:
    PeriodicHandle() = default;
    explicit PeriodicHandle(std::shared_ptr<detail::PeriodicState> state)
        : state_(std::move(state)) {}
    ~PeriodicHandle() { cancel(); }

    PeriodicHandle(const PeriodicHandle &) = delete;
    PeriodicHandle &operator=(const PeriodicHandle &) = delete;
    PeriodicHandle(PeriodicHandle &&other) noexcept = default;
    PeriodicHandle &
    operator=(PeriodicHandle &&other) noexcept
    {
        if (this != &other) {
            cancel();
            state_ = std::move(other.state_);
        }
        return *this;
    }

    /** Stop the repetition. Safe to call repeatedly or on an inert handle. */
    void cancel();

    /** @return true while the repetition is still scheduled. */
    bool active() const;

  private:
    std::shared_ptr<detail::PeriodicState> state_;
};

/**
 * Discrete-event simulation engine.
 */
class Simulator
{
  public:
    Simulator() = default;
    Simulator(const Simulator &) = delete;
    Simulator &operator=(const Simulator &) = delete;

    /** Current virtual time. */
    Time now() const { return now_; }

    /** Schedule @p cb to run @p delay after the current time. */
    EventId
    schedule(Time delay, EventQueue::Callback cb)
    {
        return queue_.schedule(now_ + delay, std::move(cb));
    }

    /** Schedule @p cb at an absolute virtual timestamp. */
    EventId
    scheduleAt(Time when, EventQueue::Callback cb)
    {
        return queue_.schedule(when < now_ ? now_ : when, std::move(cb));
    }

    /**
     * Schedule a repeating callback with fixed period, owned by the
     * returned RAII handle: the repetition stops when the handle is
     * cancelled or destroyed.
     */
    [[nodiscard]] PeriodicHandle
    schedulePeriodicScoped(Time period, std::function<void()> cb);

    /** Cancel a pending event. @retval true if it was still pending. */
    bool cancel(EventId id) { return queue_.cancel(id); }

    /** @return true if @p id has not yet fired or been cancelled. */
    bool pending(EventId id) const { return queue_.pending(id); }

    /**
     * Run until the event queue drains or virtual time reaches @p until.
     * Events at exactly @p until still fire.
     * @return the virtual time at which the run stopped.
     */
    Time run(Time until = Time::max());

    /** Run for a span of virtual time from now. */
    Time runFor(Time span) { return run(now_ + span); }

    /** Pending live events (diagnostics). */
    std::size_t pendingEvents() const { return queue_.size(); }

    /** Total events executed so far. */
    std::uint64_t executedEvents() const { return executed_; }

    /**
     * Hash the clock and event counter (DESIGN.md §11). Pending events
     * are closures and are left out.
     */
    void digestState(StateDigest &d) const;

  private:
    EventQueue queue_;
    Time now_;
    std::uint64_t executed_ = 0;
};

} // namespace leaseos::sim

#endif // LEASEOS_SIM_SIMULATOR_H
