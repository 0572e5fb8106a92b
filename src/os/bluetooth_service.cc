#include "os/bluetooth_service.h"

#include <set>

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
    std::set<Uid> owners;
    records_.sweep([&](TokenId token, BluetoothScan &scan) {
        bool enabled = shouldEnable(scan);
        if (enabled && !scan.enabled)
            scheduleTick(token, kDiscoveryInterval);
        scan.enabled = enabled;
        if (enabled) owners.insert(scan.uid);
    });
    bluetooth_.setScanOwners({owners.begin(), owners.end()});
}

void
BluetoothService::deliver(BluetoothScan &scan)
{
    if (nearbyDevices_ <= 0) return;
    ++records_.accrue(scan.uid).discoveries;
    if (scan.listener) {
        cpu_.runWorkFor(scan.uid, 0.3, sim::Time::fromMillis(3));
        scan.listener->onDeviceFound(
            nextDeviceId_++ % static_cast<std::uint64_t>(nearbyDevices_));
    }
}

} // namespace leaseos::os
