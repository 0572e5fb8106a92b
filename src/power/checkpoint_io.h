#ifndef LEASEOS_POWER_CHECKPOINT_IO_H
#define LEASEOS_POWER_CHECKPOINT_IO_H

/**
 * @file
 * Shared encode helpers for the power models' saveState implementations
 * (DESIGN.md §11). All containers travel with an explicit element count;
 * std::map iteration is key-ordered, so the emitted bytes are
 * deterministic.
 */

#include <map>
#include <vector>

#include "common/ids.h"
#include "sim/checkpoint.h"

namespace leaseos::power::ckpt {

// Ordered on purpose: blob bytes must be a pure function of state, and
// encoding runs once per checkpoint, never in the event loop.
// leaselint: allow(flat-map-hotpath) -- checkpoint tables, once per blob
using UidDoubleMap = std::map<Uid, double>;
// leaselint: allow(flat-map-hotpath) -- checkpoint tables, once per blob
using UidIntMap = std::map<Uid, int>;

inline void
writeUids(sim::CheckpointWriter &w, const std::vector<Uid> &uids)
{
    w.u64(uids.size());
    for (Uid u : uids) w.u32(static_cast<std::uint32_t>(u));
}

inline void
writeUidDoubleMap(sim::CheckpointWriter &w, const UidDoubleMap &m)
{
    w.u64(m.size());
    for (const auto &[uid, v] : m) {
        w.u32(static_cast<std::uint32_t>(uid));
        w.f64(v);
    }
}

inline void
writeUidIntMap(sim::CheckpointWriter &w, const UidIntMap &m)
{
    w.u64(m.size());
    for (const auto &[uid, v] : m) {
        w.u32(static_cast<std::uint32_t>(uid));
        w.i64(v);
    }
}

} // namespace leaseos::power::ckpt

#endif // LEASEOS_POWER_CHECKPOINT_IO_H
