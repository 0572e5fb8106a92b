#include "power/bluetooth_model.h"

#include "power/checkpoint_io.h"

namespace leaseos::power {

void
BluetoothModel::saveState(sim::CheckpointWriter &w) const
{
    w.beginSection("bt", 1);
    ckpt::writeUids(w, owners_);
    w.time(lastAdvance_);
    ckpt::writeUidDoubleMap(w, scanSeconds_);
    w.endSection();
}

} // namespace leaseos::power
