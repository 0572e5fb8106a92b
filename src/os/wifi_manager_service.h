#ifndef LEASEOS_OS_WIFI_MANAGER_SERVICE_H
#define LEASEOS_OS_WIFI_MANAGER_SERVICE_H

/**
 * @file
 * Wi-Fi lock management (android WifiManager/WifiService analog).
 *
 * A held Wi-Fi high-performance lock keeps the radio out of power-save.
 * The ConnectBot b7cc89c bug in Table 5 held one even when the active
 * network was not Wi-Fi. Structure mirrors PowerManagerService.
 */

#include <cstdint>
#include <string>
#include <utility>

#include "os/binder.h"
#include "os/resource_service.h"
#include "power/radio_model.h"

namespace leaseos::os {

/** One Wi-Fi lock kernel object. */
struct WifiLock {
    struct Totals {
        double heldSeconds = 0.0;
        double enabledSeconds = 0.0;
        std::uint64_t acquires = 0;
    };

    Uid uid = kInvalidUid;
    std::string tag;
    bool live = false; ///< held (acquired, not released)
    bool suspended = false;
    bool enabled = false;
};

/**
 * Wi-Fi lock service with interposition hooks.
 */
class WifiManagerService : public ResourceService<WifiLock>
{
  public:
    WifiManagerService(sim::Simulator &sim, power::CpuModel &cpu,
                       power::RadioModel &radio, TokenAllocator &tokens);

    // ---- App-facing API ------------------------------------------------

    TokenId
    createWifiLock(Uid uid, std::string tag)
    {
        return create({.uid = uid, .tag = std::move(tag)},
                      kBinderIpcLatency);
    }
    void
    acquire(TokenId token)
    {
        setLive(token, true, kResourceIpcLatency, [this](WifiLock &lock) {
            ++totals_[lock.uid].acquires;
        });
    }
    void
    release(TokenId token)
    {
        setLive(token, false, kBinderIpcLatency);
    }

    // ---- Metrics --------------------------------------------------------

    double heldSeconds(Uid uid) { return totalsNow(uid).heldSeconds; }
    double enabledSeconds(Uid uid) { return totalsNow(uid).enabledSeconds; }
    std::uint64_t
    acquireCount(Uid uid) const
    {
        return totals(uid).acquires;
    }

  private:
    void accrue(double dt) override;
    void apply() override;

    power::RadioModel &radio_;
};

} // namespace leaseos::os

#endif // LEASEOS_OS_WIFI_MANAGER_SERVICE_H
