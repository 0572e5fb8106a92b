#ifndef LEASEOS_OS_POWER_MANAGER_SERVICE_H
#define LEASEOS_OS_POWER_MANAGER_SERVICE_H

/**
 * @file
 * Wakelock management (android.os.PowerManagerService analog).
 *
 * Apps create wakelocks (kernel IBinder tokens) and acquire/release them.
 * A held *partial* wakelock keeps the CPU awake; a held *full* wakelock
 * additionally forces the screen on (the ConnectBot / Standup Timer bug
 * pattern). The service maintains the internal token array that decides
 * whether the CPU may deep-sleep — exactly the array the wakelock lease
 * proxy mutates in onExpire (§4.4: "remove the IBinder from the array").
 *
 * Interposition surface used by LeaseOS / DefDroid / Doze:
 *  - suspend(token)/restore(token): temporarily pull one kernel object out
 *    of the array without the app noticing (the descriptor stays valid and
 *    acquire/release IPCs behave as §4.6 describes);
 *  - setGlobalFilter(uid -> allow): Doze-style gating of whole uids.
 */

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "os/binder.h"
#include "os/resource_service.h"

namespace leaseos::os {

/** Android wakelock levels we distinguish. */
enum class WakeLockType {
    Partial, ///< CPU stays on; screen may sleep
    Full     ///< CPU and screen stay on
};

/** One wakelock kernel object. */
struct WakeLock {
    struct Totals {
        double heldSeconds = 0.0;
        double enabledSeconds = 0.0;
        std::uint64_t acquires = 0;
        std::uint64_t releases = 0;
    };

    Uid uid = kInvalidUid;
    WakeLockType type = WakeLockType::Partial;
    std::string tag;
    bool live = false; ///< held (acquired, not released)
    bool suspended = false;
    bool enabled = false;
    double heldSeconds = 0.0;
    double enabledSeconds = 0.0;
};

/**
 * Wakelock service with lease/throttle interposition hooks.
 */
class PowerManagerService : public ResourceService<WakeLock>
{
  public:
    PowerManagerService(sim::Simulator &sim, power::CpuModel &cpu,
                        TokenAllocator &tokens);

    // ---- App-facing API (binder IPCs) --------------------------------

    /** Create a wakelock kernel object; does not acquire it. */
    TokenId
    newWakeLock(Uid uid, WakeLockType type, std::string tag)
    {
        return create({.uid = uid, .type = type, .tag = std::move(tag)},
                      kBinderIpcLatency);
    }

    /** Acquire; nested acquires are idempotent (counted as re-acquire). */
    void
    acquire(TokenId token)
    {
        setLive(token, true, kResourceIpcLatency, [this](WakeLock &lock) {
            ++records_.accrue(lock.uid).acquires;
        });
    }

    /** Release; unknown/unheld tokens are ignored (Android semantics). */
    void
    release(TokenId token)
    {
        setLive(token, false, kBinderIpcLatency, [this](WakeLock &lock) {
            ++records_.accrue(lock.uid).releases;
        });
    }

    bool isHeld(TokenId token) const { return isLive(token); }

    // ---- Interposition (see ResourceService) --------------------------

    using ResourceService::setGlobalFilter;

    /**
     * Typed gate: lets a policy exempt lock levels (Doze defers
     * background CPU but never forces the panel off).
     */
    void
    setGlobalFilter(std::function<bool(Uid, WakeLockType)> filter);

    /** Remove any global gate (avoids nullptr-overload ambiguity). */
    void clearGlobalFilter() { setFilter(nullptr); }

    // ---- Metrics --------------------------------------------------------

    /** App-perspective holding time (held, regardless of suspension). */
    double heldSeconds(Uid uid) { return totalsNow(uid).heldSeconds; }
    double heldSecondsForToken(TokenId token);

    /** Effective time the token kept hardware awake. */
    double enabledSeconds(Uid uid) { return totalsNow(uid).enabledSeconds; }
    double enabledSecondsForToken(TokenId token);

    std::uint64_t
    acquireCount(Uid uid) const
    {
        return records_.totals(uid).acquires;
    }
    std::uint64_t
    releaseCount(Uid uid) const
    {
        return records_.totals(uid).releases;
    }

    /** Uids with at least one enabled partial or full lock. */
    std::vector<Uid> enabledOwners() const;

    /** Tokens @p uid currently holds (acquired, not released/destroyed). */
    std::vector<TokenId>
    heldTokens(Uid uid) const
    {
        return records_.liveTokens(uid);
    }

    const std::string &tagOf(TokenId token) const;
    WakeLockType typeOf(TokenId token) const;

    /**
     * Display coupling: invoked with the uids whose *full* locks are
     * enabled whenever that set changes.
     */
    void setFullLockCallback(std::function<void(std::vector<Uid>)> cb);

  private:
    /** Integrate per-token and per-uid times. */
    void accrue(double dt) override;

    /** Recompute enabled flags and push wake sources to hardware. */
    void apply() override;

    std::function<void(std::vector<Uid>)> fullLockCb_;
    std::vector<Uid> lastFullOwners_;
};

} // namespace leaseos::os

#endif // LEASEOS_OS_POWER_MANAGER_SERVICE_H
