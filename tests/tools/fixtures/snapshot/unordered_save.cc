// Fixture: a component digestState() that hashes by iterating a
// std::unordered_map — the canonical state-digest hazard. The digest
// would follow hash/bucket order, which varies across libstdc++ versions
// and ASLR, so "equal state => equal digest" (DESIGN.md §11) breaks
// silently. Display path src/power/fix/unordered_save.cc (the
// determinism rule only audits src/ and bench/).

#include <cstdint>
#include <unordered_map>

namespace fix {

struct StateDigest;

struct ShareTable {
    std::unordered_map<std::int32_t, double> mwByUid; // flagged

    void
    digestState(StateDigest &d) const
    {
        for (const auto &[uid, mw] : mwByUid) { // iteration order leaks
            (void)uid;
            (void)mw;
        }
    }
};

} // namespace fix
