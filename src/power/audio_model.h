#ifndef LEASEOS_POWER_AUDIO_MODEL_H
#define LEASEOS_POWER_AUDIO_MODEL_H

/**
 * @file
 * Audio output power model.
 *
 * Included because audio sessions are one of the leased resource types the
 * paper names (the Facebook iOS audio-session leak in §1), and Spotify's
 * background streaming in the §7.4 usability experiment needs it.
 */

#include <algorithm>
#include <vector>

#include "power/component.h"

namespace leaseos::power {

/**
 * Tracks which uids are playing audio; draw splits across them.
 */
class AudioModel : public PowerComponent
{
  public:
    AudioModel(sim::Simulator &sim, EnergyAccountant &accountant,
               const DeviceProfile &profile)
        : PowerComponent(sim, accountant, profile, "audio"),
          channel_(accountant.makeChannel("audio"))
    {
        update();
    }

    /** Start or stop @p uid's output; a call that changes nothing returns. */
    void
    setPlaying(Uid uid, bool playing)
    {
        auto it = std::lower_bound(players_.begin(), players_.end(), uid);
        if ((it != players_.end() && *it == uid) == playing) return;
        if (playing) players_.insert(it, uid);
        else players_.erase(it);
        update();
    }

    bool playing() const { return !players_.empty(); }
    bool
    playing(Uid uid) const
    {
        return std::binary_search(players_.begin(), players_.end(), uid);
    }

    /** Hash the open players (DESIGN.md §11). */
    void digestState(sim::StateDigest &d) const;

  private:
    void
    update()
    {
        accountant_.setPower(channel_,
                             players_.empty() ? 0.0 : profile_.audioMw,
                             players_);
    }

    ChannelId channel_;
    /** Playing uids, sorted. */
    std::vector<Uid> players_;
};

} // namespace leaseos::power

#endif // LEASEOS_POWER_AUDIO_MODEL_H
