#ifndef LEASEOS_LEASE_PROXIES_SCREEN_PROXY_H
#define LEASEOS_LEASE_PROXIES_SCREEN_PROXY_H

/**
 * @file
 * Lease proxy for full (screen) wakelocks.
 *
 * Same kernel objects as the wakelock proxy but the Full level: holding a
 * full lock keeps the panel lit. Usage is measured as the holder's live
 * Activity time (someone can only benefit from a lit screen through a
 * visible Activity), which is what flags ConnectBot's and Standup Timer's
 * background screen-holds as Long-Holding.
 */

#include "lease/lease_proxy.h"
#include "os/activity_manager_service.h"
#include "os/power_manager_service.h"

namespace leaseos::lease {

/** Service counters a screen lease term is measured against. */
struct ScreenSnapshot {
    double enabledSeconds = 0.0;
    double activitySeconds = 0.0;
    std::uint64_t uiUpdates = 0;
    std::uint64_t interactions = 0;
    std::uint64_t acquires = 0;
};

/**
 * Full-wakelock (screen) lease proxy.
 */
class ScreenLeaseProxy : public SnapshotLeaseProxy<ScreenSnapshot>
{
  public:
    ScreenLeaseProxy(os::PowerManagerService &pms,
                     os::ActivityManagerService &am);

    void onExpire(const Lease &lease) override;
    void onRenew(const Lease &lease) override;
    bool resourceHeld(const Lease &lease) override;

    void onCreated(os::TokenId token, Uid uid) override;
    void onAcquired(os::TokenId token, Uid uid) override;
    void onReleased(os::TokenId token, Uid uid) override;
    void onDestroyed(os::TokenId token, Uid uid) override;

  private:
    bool mine(os::TokenId token) const;
    ScreenSnapshot snapshot(const Lease &lease) override;
    LeaseStat termStat(const Lease &lease, const ScreenSnapshot &start,
                       const ScreenSnapshot &now) override;

    os::PowerManagerService &pms_;
    os::ActivityManagerService &am_;
};

} // namespace leaseos::lease

#endif // LEASEOS_LEASE_PROXIES_SCREEN_PROXY_H
