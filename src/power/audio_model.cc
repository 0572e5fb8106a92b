#include "power/audio_model.h"

#include "sim/state_digest.h"

namespace leaseos::power {

void
AudioModel::digestState(sim::StateDigest &d) const
{
    d.u64(players_.size());
    for (Uid u : players_) d.u32(static_cast<std::uint32_t>(u));
}

} // namespace leaseos::power
