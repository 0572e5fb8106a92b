#include "os/bluetooth_service.h"

namespace leaseos::os {

BluetoothService::BluetoothService(sim::Simulator &sim,
                                   power::CpuModel &cpu,
                                   power::BluetoothModel &bluetooth,
                                   TokenAllocator &tokens)
    : ResourceService(sim, cpu, "bluetooth", tokens), bluetooth_(bluetooth)
{
}

void
BluetoothService::apply()
{
    const Owners owners =
        sweepOwners([this](TokenId token, BluetoothScan &, bool wasEnabled) {
            if (!wasEnabled) scheduleTick(token, kDiscoveryInterval);
        });
    bluetooth_.setScanOwners(owners.span());
}

void
BluetoothService::deliver(BluetoothScan &scan)
{
    ++totals_[scan.uid].discoveries;
    if (scan.listener) {
        cpu_.runWorkFor(scan.uid, 0.3, sim::Time::fromMillis(3));
        scan.listener->onDeviceFound(nextDeviceId_++ % kNearbyDevices);
    }
}

} // namespace leaseos::os
