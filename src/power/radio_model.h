#ifndef LEASEOS_POWER_RADIO_MODEL_H
#define LEASEOS_POWER_RADIO_MODEL_H

/**
 * @file
 * Wi-Fi and cellular radio power model.
 *
 * Wi-Fi has three interesting levels: idle, high-performance lock held
 * (WifiLock — the ConnectBot b7cc89c bug holds one when the active network
 * is not even Wi-Fi), and active transfer bursts. Transfers are sized from
 * bytes / throughput. No app transfers over cellular: the cell channel
 * draws its idle power for the whole run.
 */

#include <cstdint>
#include <span>
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

    /**
     * Uids currently holding enabled high-perf Wi-Fi locks, sorted and
     * without repeats.
     */
    void setWifiLockOwners(std::span<const Uid> owners);

    /**
     * Run a Wi-Fi transfer of @p bytes for @p uid; the radio draws active
     * power for bytes/throughput seconds.
     * @return the burst duration.
     */
    sim::Time transferWifi(Uid uid, std::uint64_t bytes);

    bool wifiBusy() const { return !wifiActiveUids_.empty(); }

    /** Seconds @p uid spent actively transferring over Wi-Fi. */
    double wifiActiveSeconds(Uid uid);

    /** Hash the radio state (DESIGN.md §11). */
    void digestState(sim::StateDigest &d) const;

  private:
    void advance();
    void updateWifiPower();

    /** @p uid's index in wifiInFlight_, or its size when it has none. */
    std::size_t inFlightIndex(Uid uid) const;

    ChannelId wifiChannel_;

    std::vector<Uid> wifiLockOwners_;
    /** One entry per Wi-Fi transfer in flight: empty when not busy. */
    std::vector<Uid> wifiActiveUids_;

    /** A uid with Wi-Fi transfers in flight. */
    struct InFlight {
        Uid uid;
        int count;
        /** The uid's index in wifiActiveSeconds_. */
        std::size_t total;
    };

    sim::Time lastAdvance_;
    /** Uids with transfers in flight; a uid leaves when its last ends. */
    common::InlineVec<InFlight, 4> wifiInFlight_;
    UidTotals wifiActiveSeconds_;
};

} // namespace leaseos::power

#endif // LEASEOS_POWER_RADIO_MODEL_H
