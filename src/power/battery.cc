#include "power/battery.h"

#include "sim/state_digest.h"

namespace leaseos::power {

void
Battery::digestState(sim::StateDigest &d) const
{
    d.f64(baseMj_);
}

} // namespace leaseos::power
