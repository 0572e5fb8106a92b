#ifndef LEASEOS_POWER_RADIO_MODEL_H
#define LEASEOS_POWER_RADIO_MODEL_H

/**
 * @file
 * Wi-Fi and cellular radio power model.
 *
 * Wi-Fi has three interesting levels: idle, high-performance lock held
 * (WifiLock — the ConnectBot b7cc89c bug holds one when the active network
 * is not even Wi-Fi), and active transfer bursts. Transfers are sized from
 * bytes / throughput. Cellular is modelled the same way minus locks.
 */

#include <cstdint>
#include <map>
#include <vector>

#include "power/component.h"
#include "sim/time.h"

namespace leaseos::power {

/**
 * Combined Wi-Fi + cellular radio model.
 */
class RadioModel : public PowerComponent
{
  public:
    RadioModel(sim::Simulator &sim, EnergyAccountant &accountant,
               const DeviceProfile &profile);

    // ---- Wi-Fi ---------------------------------------------------------

    /** Uids currently holding enabled high-perf Wi-Fi locks. */
    void setWifiLockOwners(std::vector<Uid> owners);

    /**
     * Run a Wi-Fi transfer of @p bytes for @p uid; the radio draws active
     * power for bytes/throughput seconds.
     * @return the burst duration.
     */
    sim::Time transferWifi(Uid uid, std::uint64_t bytes);

    bool wifiBusy() const { return wifiActive_ > 0; }

    /** Seconds @p uid spent actively transferring over Wi-Fi. */
    double wifiActiveSeconds(Uid uid);

    // ---- Cellular --------------------------------------------------------

    sim::Time transferCell(Uid uid, std::uint64_t bytes);

    /** Serialize radio state as a "radio" section (DESIGN.md §11). */
    void saveState(sim::CheckpointWriter &w) const;

  private:
    void advance();
    void updateWifiPower();

    ChannelId wifiChannel_;
    ChannelId cellChannel_;

    std::vector<Uid> wifiLockOwners_;
    int wifiActive_ = 0;
    std::vector<Uid> wifiActiveUids_;
    int cellActive_ = 0;
    std::vector<Uid> cellActiveUids_;

    sim::Time lastAdvance_;
    // leaselint: allow(flat-map-hotpath) -- per-run stats, read at teardown
    std::map<Uid, int> wifiActiveCount_;
    // leaselint: allow(flat-map-hotpath) -- per-run stats, read at teardown
    std::map<Uid, double> wifiActiveSeconds_;
};

} // namespace leaseos::power

#endif // LEASEOS_POWER_RADIO_MODEL_H
