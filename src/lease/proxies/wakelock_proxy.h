#ifndef LEASEOS_LEASE_PROXIES_WAKELOCK_PROXY_H
#define LEASEOS_LEASE_PROXIES_WAKELOCK_PROXY_H

/**
 * @file
 * Lease proxy for partial wakelocks (the CPU resource).
 *
 * Lives inside PowerManagerService. onExpire removes the IBinder from the
 * service's enabled array (the phone may then deep-sleep, §4.4's worked
 * example); onRenew puts it back. Term stats: holding = enabled lock time,
 * usage = the holder's CPU seconds, utility from severe exceptions and UI
 * signals.
 */

#include "lease/lease_proxy.h"
#include "os/activity_manager_service.h"
#include "os/exception_note_handler.h"
#include "os/power_manager_service.h"
#include "power/cpu_model.h"

namespace leaseos::lease {

/** Service counters a wakelock lease term is measured against. */
struct WakelockSnapshot {
    double enabledSeconds = 0.0;
    double cpuSeconds = 0.0;
    std::uint64_t exceptions = 0;
    std::uint64_t uiUpdates = 0;
    std::uint64_t interactions = 0;
    std::uint64_t acquires = 0;
};

/**
 * Partial-wakelock lease proxy.
 */
class WakelockLeaseProxy : public SnapshotLeaseProxy<WakelockSnapshot>
{
  public:
    WakelockLeaseProxy(os::PowerManagerService &pms, power::CpuModel &cpu,
                       os::ExceptionNoteHandler &exceptions,
                       os::ActivityManagerService &am);

    void onExpire(const Lease &lease) override;
    void onRenew(const Lease &lease) override;
    bool resourceHeld(const Lease &lease) override;

    // Filtered forwarding: only partial locks belong to this proxy.
    void onCreated(os::TokenId token, Uid uid) override;
    void onAcquired(os::TokenId token, Uid uid) override;
    void onReleased(os::TokenId token, Uid uid) override;
    void onDestroyed(os::TokenId token, Uid uid) override;

  private:
    bool mine(os::TokenId token) const;
    WakelockSnapshot snapshot(const Lease &lease) override;
    LeaseStat termStat(const Lease &lease, const WakelockSnapshot &start,
                       const WakelockSnapshot &now) override;

    os::PowerManagerService &pms_;
    power::CpuModel &cpu_;
    os::ExceptionNoteHandler &exceptions_;
    os::ActivityManagerService &am_;
};

} // namespace leaseos::lease

#endif // LEASEOS_LEASE_PROXIES_WAKELOCK_PROXY_H
