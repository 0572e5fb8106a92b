// Fixture: the clean counterpart of unordered_save.cc — the digest walks
// an ordered std::map plus an install-order vector, so it is a pure
// function of state. Display path src/power/fix/ordered_save.cc.

#include <cstdint>
#include <map>
#include <vector>

namespace fix {

struct StateDigest;

struct ShareTable {
    std::map<std::int32_t, double> mwByUid;
    std::vector<std::int32_t> uidsInInstallOrder;

    void
    digestState(StateDigest &d) const
    {
        for (const auto &[uid, mw] : mwByUid) {
            (void)uid;
            (void)mw;
        }
        for (std::int32_t uid : uidsInInstallOrder) (void)uid;
    }
};

} // namespace fix
