#include "sim/random.h"

#include <locale>
#include <sstream>

#include "sim/checkpoint.h"

namespace leaseos::sim {

void
RandomSource::saveState(CheckpointWriter &w) const
{
    // The standard guarantees operator<< writes the engine's full state
    // as decimal integers; pinning the classic locale makes the text (and
    // with it the blob bytes) identical on every host.
    std::ostringstream os;
    os.imbue(std::locale::classic());
    os << rng_;
    w.beginSection("rng", 1);
    w.str(os.str());
    w.endSection();
}

} // namespace leaseos::sim
