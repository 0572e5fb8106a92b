#include "power/screen_model.h"

#include "sim/state_digest.h"

namespace leaseos::power {

void
ScreenModel::digestState(sim::StateDigest &d) const
{
    d.u8(on_ ? 1 : 0);
    d.u32s(owners_);
}

} // namespace leaseos::power
