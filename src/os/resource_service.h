#ifndef LEASEOS_OS_RESOURCE_SERVICE_H
#define LEASEOS_OS_RESOURCE_SERVICE_H

/**
 * @file
 * Base of the six resource services: power, location, sensor, wifi, audio
 * and bluetooth, and the one copy of their kernel objects' lifecycle.
 *
 * A kernel object is created, acquired, released and destroyed (§3.2;
 * the lease proxies of §4.4 follow these four events). Every step runs in
 * one order: charge the inbound binder IPC to the caller's uid (destroy
 * has no IPC: the object dies with its app or wrapper), advance() the
 * time-based totals to now, mint or retire the token and add, flag or
 * erase the record, apply() the enabled records to the hardware (a create
 * that adds no live record skips it), and only then call the listeners.
 * Releasing an object that is not live is a no-op: no IPC, no accrual, no
 * listener call, just as Android's WakeLock.release() makes no binder call
 * for a lock it does not hold.
 *
 * Each service keeps its kernel objects in one token-ordered record map,
 * beside the per-uid totals behind its metric getters, and offers the
 * same interposition surface to LeaseOS and the baselines: suspend(token)
 * pulls one object out of service without the app noticing (the
 * descriptor stays valid and acquire/release IPCs behave as §4.6
 * describes), and a Doze-style global filter gates whole uids. A record is
 * enabled when it is live, not suspended and allowed by the filter. A
 * service overrides apply(), which turns the enabled records into
 * hardware state, accrue(), which integrates its time-based totals, and,
 * for a subscription (location, sensor, Bluetooth), deliver(), the
 * callback that scheduleTick() repeats while the record stays enabled.
 * A record holds a kernel object from the IPC that mints its token until
 * destroy(); only a live one (a held lock, an active request or
 * registration, an open session, a running scan) can be enabled, accrue
 * time or own hardware. Releasing a subscription or a session frees its
 * object too, so the map holds the live objects and the released locks
 * that their apps have not freed, and the walks below visit every record
 * in token order.
 * sweepOwners() collects the enabled records' uids into a stack buffer and
 * apply() hands the hardware a span over it; the hardware setters copy it
 * into storage they keep between calls, so an acquire or a release
 * allocates nothing once warm (DESIGN.md §8).
 */

#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/inline_vec.h"
#include "os/binder.h"
#include "os/resource_listener.h"
#include "os/service.h"

namespace leaseos::os {

/**
 * What LeaseOS and the baselines call on any of the six services,
 * whatever their record type: the lease proxy and the DefDroid and
 * one-shot throttlers hold a service through this base.
 */
class ResourceServiceBase : public Service
{
  public:
    /** Pull @p token out of service; the app keeps "holding" it. */
    virtual void suspend(TokenId token) = 0;

    /** Undo suspend(); re-enables the object if it is still live. */
    virtual void restore(TokenId token) = 0;

    /** Whether @p token's object is live (held, active, open, scanning). */
    virtual bool isLive(TokenId token) const = 0;

    void
    addListener(ResourceListener *listener)
    {
        listeners_.push_back(listener);
    }

  protected:
    using Service::Service;

    /** Call @p event(token, uid) on every listener, in the order added. */
    void
    notify(void (ResourceListener::*event)(TokenId, Uid), TokenId token,
           Uid uid) const
    {
        for (ResourceListener *listener : listeners_)
            (listener->*event)(token, uid);
    }

  private:
    std::vector<ResourceListener *> listeners_;
};

/**
 * Record needs `uid`, `live`, `suspended` and `enabled` members and a
 * default-constructible `Totals` type (the per-uid totals); scheduleTick()
 * also needs a `tickScheduled` flag.
 */
template <typename Record>
class ResourceService : public ResourceServiceBase
{
  public:
    /**
     * Kernel object death (app exit, GC of the app's wrapper): no IPC.
     * A live object dies without a release, so listeners see only
     * onDestroyed.
     */
    void
    destroy(TokenId token)
    {
        const Record *record = find(token);
        if (!record) return;
        const Uid uid = record->uid;
        advance();
        records_.erase(token);
        tokens_.retire(token);
        apply();
        notify(&ResourceListener::onDestroyed, token, uid);
    }

    // ---- Interposition (same-address-space, no IPC) -------------------

    void suspend(TokenId token) final { setSuspended(token, true); }

    void restore(TokenId token) final { setSuspended(token, false); }

    bool
    isLive(TokenId token) const final
    {
        const Record *record = find(token);
        return record && record->live;
    }

    /** Live, not suspended and allowed by the filter (as of apply()). */
    bool
    isEnabled(TokenId token) const
    {
        const Record *record = find(token);
        return record && record->enabled;
    }

    /**
     * Doze-style global gate; nullptr clears it. The filter is evaluated
     * now and on every later state change.
     */
    void
    setGlobalFilter(std::function<bool(Uid)> filter)
    {
        if (!filter) {
            setFilter(nullptr);
            return;
        }
        setFilter([filter = std::move(filter)](const Record &record) {
            return filter(record.uid);
        });
    }

    /** Re-apply the global filter after external state changed. */
    void
    refilter()
    {
        advance();
        apply();
    }

    /** Every record in token order, for the invariant audits. */
    const std::map<TokenId, Record> &records() const { return records_; }

  protected:
    using Filter = std::function<bool(const Record &)>;
    using Totals = typename Record::Totals;
    /** Uids apply() collects for the hardware; a handful fit inline. */
    using Owners = common::InlineVec<Uid, 8>;

    ResourceService(sim::Simulator &sim, power::CpuModel &cpu,
                    std::string name, TokenAllocator &tokens)
        : ResourceServiceBase(sim, cpu, std::move(name)), tokens_(tokens),
          lastAdvance_(sim.now())
    {
    }

    /**
     * The IPC that makes a kernel object: charge @p ipc, mint a token
     * and add @p record. A record made live (a subscription starts
     * running at once) is applied and reported acquired as well.
     */
    TokenId
    create(Record record, sim::Time ipc)
    {
        const Uid uid = record.uid;
        const bool live = record.live;
        chargeIpc(uid, ipc);
        advance();
        const TokenId token = tokens_.next();
        records_.emplace(token, std::move(record));
        if (live) apply();
        notify(&ResourceListener::onCreated, token, uid);
        if (live) notify(&ResourceListener::onAcquired, token, uid);
        return token;
    }

    /**
     * The IPC that acquires (@p live) or releases @p token, charging
     * @p ipc; @p edit(record) runs after the live flag is set and before
     * apply(). Acquiring a live object goes through again (a nested
     * acquire); releasing one that is not live does nothing.
     */
    template <typename Edit = void (*)(Record &)>
    void
    setLive(TokenId token, bool live, sim::Time ipc,
            Edit edit = [](Record &) {})
    {
        Record *record = find(token);
        if (!record || (!live && !record->live)) return;
        const Uid uid = record->uid;
        chargeIpc(uid, ipc);
        advance();
        record->live = live;
        edit(*record);
        apply();
        notify(live ? &ResourceListener::onAcquired
                    : &ResourceListener::onReleased,
               token, uid);
    }

    /** Bring the time-based totals up to now (see accrue()). */
    void
    advance()
    {
        const sim::Time now = sim_.now();
        if (now > lastAdvance_) accrue((now - lastAdvance_).seconds());
        lastAdvance_ = now;
    }

    /** @p uid's totals, advanced to now. */
    const Totals &
    totalsNow(Uid uid)
    {
        advance();
        return totals(uid);
    }

    Record *
    find(TokenId token)
    {
        auto it = records_.find(token);
        return it == records_.end() ? nullptr : &it->second;
    }

    const Record *
    find(TokenId token) const
    {
        auto it = records_.find(token);
        return it == records_.end() ? nullptr : &it->second;
    }

    /** @p uid's totals; zero for a uid that never accrued any. */
    const Totals &
    totals(Uid uid) const
    {
        static const Totals zero{};
        auto it = totals_.find(uid);
        return it == totals_.end() ? zero : it->second;
    }

    /** Tokens of @p uid's live records, in token order. */
    std::vector<TokenId>
    liveTokens(Uid uid) const
    {
        std::vector<TokenId> tokens;
        for (const auto &[token, record] : records_)
            if (record.live && record.uid == uid) tokens.push_back(token);
        return tokens;
    }

    /** Add the @p dt seconds since the last advance() to the totals. */
    virtual void accrue(double dt) { (void)dt; }

    /** Recompute enabled flags and push them to the hardware. */
    virtual void apply() = 0;

    /**
     * apply()'s walk: recompute every record's enabled flag in token
     * order, call @p onEnabled(token, record, wasEnabled) on each enabled
     * one, and return their uids ascending and without repeats. The
     * hardware splits power across owners in the order given, so this
     * order is part of the output bits. A released record is cleared here
     * in the apply() of its release; @p onEnabled must not add or erase
     * records.
     */
    template <typename OnEnabled = void (*)(TokenId, Record &, bool)>
    Owners
    sweepOwners(OnEnabled onEnabled = [](TokenId, Record &, bool) {})
    {
        Owners owners;
        for (auto &[token, record] : records_) {
            const bool wasEnabled = record.enabled;
            record.enabled = shouldEnable(record);
            if (!record.enabled) continue;
            owners.push_back(record.uid);
            onEnabled(token, record, wasEnabled);
        }
        common::sortUnique(owners);
        return owners;
    }

    /** Whether @p record should be enabled under the current filter. */
    bool
    shouldEnable(const Record &record) const
    {
        return record.live && !record.suspended &&
            (!filter_ || filter_(record));
    }

    void
    setFilter(Filter filter)
    {
        advance();
        filter_ = std::move(filter);
        apply();
    }

    /**
     * Call deliver() on @p token's record every @p interval while it
     * stays enabled; apply() starts the loop when a record becomes
     * enabled. A tick that finds the record suspended, filtered or
     * released withholds the callback and ends the loop. At most one tick
     * is pending per record.
     */
    void
    scheduleTick(TokenId token, sim::Time interval)
    {
        Record *record = find(token);
        if (!record || record->tickScheduled) return;
        record->tickScheduled = true;
        sim_.schedule(interval,
                      [this, token, interval] { tick(token, interval); });
    }

    /** One callback of a subscription's loop (see scheduleTick()). */
    virtual void deliver(Record &record) { (void)record; }

    /** The kernel-object records, live or released, in token order. */
    std::map<TokenId, Record> records_;
    /** Per-uid totals behind the metric getters; accrue() adds to them. */
    std::map<Uid, Totals> totals_;

  private:
    void
    setSuspended(TokenId token, bool suspended)
    {
        Record *record = find(token);
        if (!record || record->suspended == suspended) return;
        advance();
        record->suspended = suspended;
        apply();
    }

    void
    tick(TokenId token, sim::Time interval)
    {
        Record *record = find(token);
        if (!record) return;
        record->tickScheduled = false;
        if (!record->enabled) return;
        deliver(*record);
        scheduleTick(token, interval);
    }

    TokenAllocator &tokens_;
    Filter filter_;
    sim::Time lastAdvance_;
};

} // namespace leaseos::os

#endif // LEASEOS_OS_RESOURCE_SERVICE_H
