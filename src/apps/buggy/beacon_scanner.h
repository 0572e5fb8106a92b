#ifndef LEASEOS_APPS_BUGGY_BEACON_SCANNER_H
#define LEASEOS_APPS_BUGGY_BEACON_SCANNER_H

/**
 * @file
 * Item-finder beacon scanner: the canonical Bluetooth misbehaviour
 * pattern (Table 1's Bluetooth column). The app is supposed to scan in
 * duty-cycled bursts; a defect keeps the LE scan running continuously in
 * the background after the user closes the app — holding the radio in
 * its expensive discovery state for nothing → Long-Holding.
 */

#include "app/app.h"
#include "os/binder.h"
#include "os/bluetooth_service.h"

namespace leaseos::apps {

/**
 * Buggy always-scanning beacon tracker.
 */
class BeaconScanner : public app::App, private os::ScanListener
{
  public:
    BeaconScanner(app::AppContext &ctx, Uid uid)
        : App(ctx, uid, "BeaconScanner") {}

    void
    start() override
    {
        // The user checks their keys, then leaves; stopScan is never
        // called on this path (the defect).
        ctx_.activityManager().activityStarted(uid());
        // leaselint: allow(cross-unit-pairing) -- modelled defect: scan leaks by design
        scan_ = ctx_.bluetoothService().startScan(uid(), this);
        // The user closing the app is an external event — it must not
        // depend on the app process being runnable.
        ctx_.alarmManager().setAlarm(uid(), sim::Time::fromSeconds(20.0),
                                     true, [this] {
            ctx_.activityManager().activityStopped(uid());
        });
    }

    void
    stop() override
    {
        ctx_.bluetoothService().destroy(scan_);
        App::stop();
    }

  private:
    void
    onDeviceFound(std::uint64_t) override
    {
        process_.computeScaled(0.2, sim::Time::fromMillis(5));
    }

    os::TokenId scan_ = os::kInvalidToken;
};

} // namespace leaseos::apps

#endif // LEASEOS_APPS_BUGGY_BEACON_SCANNER_H
