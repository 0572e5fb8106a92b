#ifndef LEASEOS_OS_RESOURCE_TABLE_H
#define LEASEOS_OS_RESOURCE_TABLE_H

/**
 * @file
 * One resource service's kernel-object records (DESIGN.md §4).
 *
 * A record lives from the IPC that mints its token until destroy(), so a
 * released lock stays until the app frees its object (§3.2); releasing a
 * subscription or a session destroys it too. Only *live* records — an
 * active request, a held lock, an open session, a running scan — can be
 * enabled, accrue time or own hardware. The table keeps an index of the live
 * records in token order; the services' accrue()/apply() walks and
 * per-uid queries visit that index instead of the service's history.
 *
 * Record must have `Uid uid` and `bool live` members and a default-
 * constructible `Record::Totals` (the per-uid totals the table also
 * holds). Only the table writes `live` (add/setLive). A record that stops
 * being live stays indexed until the next sweep(), which is the apply()
 * walk that withdraws it: it does so at the same place in token order as
 * a walk over every record would, so accumulation and tick scheduling
 * happen in the same order.
 */

#include <algorithm>
#include <map>
#include <span>
#include <utility>
#include <vector>

#include "common/ids.h"
#include "os/binder.h"

namespace leaseos::os {

template <typename Record>
class ResourceTable
{
  public:
    using Entry = std::pair<const TokenId, Record>;
    using Totals = typename Record::Totals;

    /** Add the record of a newly minted @p token; indexed if live. */
    void
    add(TokenId token, Record record)
    {
        auto [it, added] = records_.emplace(token, std::move(record));
        if (added && it->second.live) index_.insert(indexPos(token), &*it);
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

    Uid
    ownerOf(TokenId token) const
    {
        const Record *record = find(token);
        return record ? record->uid : kInvalidUid;
    }

    /** Kernel object death: drop the record and its index entry. */
    void
    erase(TokenId token)
    {
        auto it = records_.find(token);
        if (it == records_.end()) return;
        auto pos = indexPos(token);
        if (pos != index_.end() && (*pos)->first == token) index_.erase(pos);
        records_.erase(it);
    }

    /** Acquire (@p live) or release; a release is unindexed by sweep(). */
    void
    setLive(TokenId token, bool live)
    {
        auto it = records_.find(token);
        if (it == records_.end()) return;
        it->second.live = live;
        if (!live) return;
        auto pos = indexPos(token);
        if (pos == index_.end() || (*pos)->first != token)
            index_.insert(pos, &*it);
    }

    /** The indexed records in token order (accrue() walks these). */
    std::span<Entry *const> live() const { return index_; }

    /**
     * apply()'s walk: call @p fn(token, record) for every indexed record
     * in token order, then unindex the released ones. @p fn must not add,
     * erase or setLive.
     */
    template <typename Fn>
    void
    sweep(Fn &&fn)
    {
        for (Entry *entry : index_) fn(entry->first, entry->second);
        std::erase_if(index_,
                      [](const Entry *entry) { return !entry->second.live; });
    }

    /** Tokens of @p uid's live records, in token order. */
    std::vector<TokenId>
    liveTokens(Uid uid) const
    {
        std::vector<TokenId> tokens;
        for (const Entry *entry : index_)
            if (entry->second.uid == uid && entry->second.live)
                tokens.push_back(entry->first);
        return tokens;
    }

    /** @p uid's totals for accruing; created zeroed on first use. */
    Totals &accrue(Uid uid) { return totals_[uid]; }

    /** @p uid's totals; zero for a uid that never accrued any. */
    const Totals &
    totals(Uid uid) const
    {
        static const Totals zero{};
        auto it = totals_.find(uid);
        return it == totals_.end() ? zero : it->second;
    }

    /** Every record, live or released, in token order. */
    const std::map<TokenId, Record> &records() const { return records_; }

    /**
     * Audit (walks every record): the index lists exactly the live
     * records, in token order. Holds between service calls.
     */
    bool
    indexMatchesRecords() const
    {
        auto next = index_.begin();
        for (const Entry &entry : records_) {
            if (!entry.second.live) continue;
            if (next == index_.end() || *next != &entry) return false;
            ++next;
        }
        return next == index_.end();
    }

  private:
    typename std::vector<Entry *>::iterator
    indexPos(TokenId token)
    {
        return std::lower_bound(
            index_.begin(), index_.end(), token,
            [](const Entry *entry, TokenId t) { return entry->first < t; });
    }

    std::map<TokenId, Record> records_;
    std::vector<Entry *> index_;
    std::map<Uid, Totals> totals_;
};

} // namespace leaseos::os

#endif // LEASEOS_OS_RESOURCE_TABLE_H
