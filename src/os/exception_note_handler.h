#ifndef LEASEOS_OS_EXCEPTION_NOTE_HANDLER_H
#define LEASEOS_OS_EXCEPTION_NOTE_HANDLER_H

/**
 * @file
 * App exception telemetry (§6's libcore ExceptionNoteHandler analog).
 *
 * LeaseOS's generic utility for wakelocks uses "the frequency of severe
 * exceptions raised in apps" (§3.3): a high-CPU loop that keeps throwing
 * (K-9's disconnected retry loop) is Low-Utility even though utilisation
 * looks high. The real system hooks libcore's exception path; we model the
 * note store that hook feeds.
 */

#include <cstdint>
#include <map>

#include "common/ids.h"

namespace leaseos::os {

/** Exception severity as judged by the runtime hook. */
enum class ExceptionSeverity { Minor, Severe };

/**
 * Per-uid exception counters.
 */
class ExceptionNoteHandler
{
  public:
    /** Called from the app runtime when an exception propagates. */
    void
    noteException(Uid uid, ExceptionSeverity severity)
    {
        if (severity == ExceptionSeverity::Severe) ++severe_[uid];
    }

    std::uint64_t
    severeCount(Uid uid) const
    {
        auto it = severe_.find(uid);
        return it == severe_.end() ? 0 : it->second;
    }

  private:
    std::map<Uid, std::uint64_t> severe_;
};

} // namespace leaseos::os

#endif // LEASEOS_OS_EXCEPTION_NOTE_HANDLER_H
