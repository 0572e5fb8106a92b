#ifndef LEASEOS_OS_RESOURCE_SERVICE_H
#define LEASEOS_OS_RESOURCE_SERVICE_H

/**
 * @file
 * Base of the six resource services: power, location, sensor, wifi, audio
 * and bluetooth.
 *
 * Each keeps its kernel objects in a ResourceTable and offers the same
 * interposition surface to LeaseOS and the baselines: suspend(token)
 * pulls one object out of service without the app noticing (the
 * descriptor stays valid and acquire/release IPCs behave as §4.6
 * describes), and a Doze-style global filter gates whole uids. A record is
 * enabled when it is live, not suspended and allowed by the filter; the
 * subclass's apply() turns the enabled records into hardware state, and
 * its advance() integrates time-based totals up to now before any change.
 */

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "os/binder.h"
#include "os/resource_listener.h"
#include "os/resource_table.h"
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

    std::vector<ResourceListener *> listeners_;
};

/**
 * Record needs `uid`, `live`, `suspended` and `enabled` members and a
 * `Totals` type (see ResourceTable).
 */
template <typename Record>
class ResourceService : public ResourceServiceBase
{
  public:
    // ---- Interposition (same-address-space, no IPC) -------------------

    void suspend(TokenId token) final { setSuspended(token, true); }

    void restore(TokenId token) final { setSuspended(token, false); }

    bool
    isLive(TokenId token) const final
    {
        const Record *record = records_.find(token);
        return record && record->live;
    }

    bool
    isSuspended(TokenId token) const
    {
        const Record *record = records_.find(token);
        return record && record->suspended;
    }

    /** Live, not suspended and allowed by the filter (as of apply()). */
    bool
    isEnabled(TokenId token) const
    {
        const Record *record = records_.find(token);
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

    Uid ownerOf(TokenId token) const { return records_.ownerOf(token); }

    /** Every record, for the invariant audits. */
    const ResourceTable<Record> &records() const { return records_; }

  protected:
    using Filter = std::function<bool(const Record &)>;

    ResourceService(sim::Simulator &sim, power::CpuModel &cpu,
                    std::string name, TokenAllocator &tokens)
        : ResourceServiceBase(sim, cpu, std::move(name)), tokens_(tokens)
    {
    }

    /** Integrate time-based totals up to now. */
    virtual void advance() {}

    /** Recompute enabled flags and push them to the hardware. */
    virtual void apply() = 0;

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

    TokenAllocator &tokens_;
    ResourceTable<Record> records_;

  private:
    void
    setSuspended(TokenId token, bool suspended)
    {
        Record *record = records_.find(token);
        if (!record || record->suspended == suspended) return;
        advance();
        record->suspended = suspended;
        apply();
    }

    Filter filter_;
};

} // namespace leaseos::os

#endif // LEASEOS_OS_RESOURCE_SERVICE_H
