#include "power/audio_model.h"

#include "power/checkpoint_io.h"

namespace leaseos::power {

void
AudioModel::saveState(sim::CheckpointWriter &w) const
{
    w.beginSection("audio", 1);
    w.u64(players_.size());
    for (Uid u : players_) w.u32(static_cast<std::uint32_t>(u));
    w.endSection();
}

} // namespace leaseos::power
