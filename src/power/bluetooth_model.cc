#include "power/bluetooth_model.h"

#include "sim/state_digest.h"

namespace leaseos::power {

void
BluetoothModel::digestState(sim::StateDigest &d) const
{
    d.u32s(owners_);
    d.time(lastAdvance_);
    digestTotals(d, scanSeconds_);
}

} // namespace leaseos::power
