#include "power/battery.h"

#include "sim/checkpoint.h"

namespace leaseos::power {

void
Battery::saveState(sim::CheckpointWriter &w) const
{
    w.beginSection("battery", 1);
    w.f64(baseMj_);
    w.endSection();
}

} // namespace leaseos::power
