#include "power/screen_model.h"

#include "power/checkpoint_io.h"

namespace leaseos::power {

void
ScreenModel::saveState(sim::CheckpointWriter &w) const
{
    w.beginSection("screen", 1);
    w.u8(on_ ? 1 : 0);
    w.f64(brightness_);
    ckpt::writeUids(w, owners_);
    w.endSection();
}

} // namespace leaseos::power
