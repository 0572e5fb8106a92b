#include "sim/random.h"

#include <locale>
#include <sstream>

#include "sim/state_digest.h"

namespace leaseos::sim {

void
RandomSource::digestState(StateDigest &d) const
{
    // The standard guarantees operator<< writes the engine's full state
    // as decimal integers; pinning the classic locale makes the text (and
    // with it the digest) identical on every host.
    std::ostringstream os;
    os.imbue(std::locale::classic());
    os << rng_;
    d.str(os.str());
}

} // namespace leaseos::sim
