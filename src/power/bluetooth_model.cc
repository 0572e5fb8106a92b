#include "power/bluetooth_model.h"

#include "sim/state_digest.h"

namespace leaseos::power {

void
BluetoothModel::digestState(sim::StateDigest &d) const
{
    d.u32s(owners_);
    d.time(lastAdvance_);
    d.u64(scanSeconds_.size());
    for (const auto &[uid, seconds] : scanSeconds_) {
        d.u32(static_cast<std::uint32_t>(uid));
        d.f64(seconds);
    }
}

} // namespace leaseos::power
