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
        if (enabled && !scan.enabled) {
            scan.enabled = true;
            scheduleTick(token);
        } else {
            scan.enabled = enabled;
        }
        if (scan.enabled) owners.insert(scan.uid);
    });
    bluetooth_.setScanOwners({owners.begin(), owners.end()});
}

void
BluetoothService::scheduleTick(TokenId token)
{
    BluetoothScan *scan = records_.find(token);
    if (!scan || scan->tickScheduled) return;
    scan->tickScheduled = true;
    sim_.schedule(kDiscoveryInterval,
                  [this, token] { deliverTick(token); });
}

void
BluetoothService::deliverTick(TokenId token)
{
    BluetoothScan *scan = records_.find(token);
    if (!scan) return;
    scan->tickScheduled = false;
    if (!scan->enabled) return;
    if (nearbyDevices_ > 0) {
        ++records_.accrue(scan->uid).discoveries;
        if (scan->listener) {
            cpu_.runWorkFor(scan->uid, 0.3, sim::Time::fromMillis(3));
            scan->listener->onDeviceFound(
                nextDeviceId_++ % static_cast<std::uint64_t>(
                                      nearbyDevices_));
        }
    }
    scheduleTick(token);
}

TokenId
BluetoothService::startScan(Uid uid, ScanListener *listener)
{
    chargeIpc(uid, kResourceIpcLatency);
    TokenId token = tokens_.next();
    BluetoothScan scan;
    scan.uid = uid;
    scan.listener = listener;
    scan.live = true;
    records_.add(token, scan);
    apply();
    for (auto *l : listeners_) l->onCreated(token, uid);
    for (auto *l : listeners_) l->onAcquired(token, uid);
    return token;
}

void
BluetoothService::stopScan(TokenId token)
{
    BluetoothScan *scan = records_.find(token);
    if (!scan || !scan->live) return;
    Uid uid = scan->uid;
    chargeIpc(uid, kBinderIpcLatency);
    records_.setLive(token, false);
    apply();
    for (auto *l : listeners_) l->onReleased(token, uid);
}

void
BluetoothService::destroy(TokenId token)
{
    const BluetoothScan *scan = records_.find(token);
    if (!scan) return;
    Uid uid = scan->uid;
    records_.erase(token);
    tokens_.retire(token);
    apply();
    for (auto *l : listeners_) l->onDestroyed(token, uid);
}

} // namespace leaseos::os
