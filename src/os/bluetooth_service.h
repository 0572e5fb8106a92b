#ifndef LEASEOS_OS_BLUETOOTH_SERVICE_H
#define LEASEOS_OS_BLUETOOTH_SERVICE_H

/**
 * @file
 * Bluetooth scan management (android BluetoothLeScanner analog).
 *
 * Apps start scans and receive discovered-device callbacks; the radio
 * draws scan power while any enabled registration exists. Same
 * interposition surface as the other subscription services, so the
 * Bluetooth lease proxy and the baselines plug in unchanged.
 */

#include <cstdint>

#include "os/binder.h"
#include "os/resource_service.h"
#include "power/bluetooth_model.h"

namespace leaseos::os {

/** App callback receiving discovered devices. */
class ScanListener
{
  public:
    virtual ~ScanListener() = default;
    virtual void onDeviceFound(std::uint64_t deviceId) = 0;
};

/** One scan registration kernel object. */
struct BluetoothScan {
    struct Totals {
        std::uint64_t discoveries = 0;
    };

    Uid uid = kInvalidUid;
    ScanListener *listener = nullptr;
    bool live = false; ///< scanning (not stopped)
    bool suspended = false;
    bool enabled = false;
    bool tickScheduled = false;
};

/**
 * Bluetooth scan service with lease/throttle interposition hooks.
 */
class BluetoothService : public ResourceService<BluetoothScan>
{
  public:
    /** Cadence of discovery callbacks while scanning near devices. */
    static constexpr sim::Time kDiscoveryInterval =
        sim::Time::fromSeconds(12.0);

    BluetoothService(sim::Simulator &sim, power::CpuModel &cpu,
                     power::BluetoothModel &bluetooth,
                     TokenAllocator &tokens);

    /** How many distinct devices are in radio range (env knob). */
    void setNearbyDevices(int count) { nearbyDevices_ = count; }

    // ---- App-facing API ------------------------------------------------

    TokenId
    startScan(Uid uid, ScanListener *listener)
    {
        return create({.uid = uid, .listener = listener, .live = true},
                      kResourceIpcLatency);
    }
    void
    stopScan(TokenId token)
    {
        setLive(token, false, kBinderIpcLatency);
    }
    bool isActive(TokenId token) const { return isLive(token); }

    // ---- Metrics --------------------------------------------------------

    double scanSeconds(Uid uid) { return bluetooth_.scanSeconds(uid); }
    std::uint64_t
    discoveries(Uid uid) const
    {
        return records_.totals(uid).discoveries;
    }

  private:
    void apply() override;
    void deliver(BluetoothScan &scan) override;

    power::BluetoothModel &bluetooth_;
    int nearbyDevices_ = 3;
    std::uint64_t nextDeviceId_ = 1;
};

} // namespace leaseos::os

#endif // LEASEOS_OS_BLUETOOTH_SERVICE_H
