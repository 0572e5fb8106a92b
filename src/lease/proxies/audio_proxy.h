#ifndef LEASEOS_LEASE_PROXIES_AUDIO_PROXY_H
#define LEASEOS_LEASE_PROXIES_AUDIO_PROXY_H

/**
 * @file
 * Lease proxy for audio sessions.
 *
 * The §1 motivating bug (Facebook iOS leaking audio sessions and "doing
 * nothing but staying awake") is a textbook Long-Holding on the audio
 * resource: session open, nothing audible. Usage = audible playback
 * time; audible output is also strong generic utility (§3.3's Table 1
 * lists audio among the leasable resources).
 */

#include "lease/lease_proxy.h"
#include "os/activity_manager_service.h"
#include "os/audio_session_service.h"

namespace leaseos::lease {

/** Service counters a audio lease term is measured against. */
struct AudioSnapshot {
    double openSeconds = 0.0;
    double playingSeconds = 0.0;
    std::uint64_t uiUpdates = 0;
    std::uint64_t interactions = 0;
};

/**
 * Audio-session lease proxy.
 */
class AudioLeaseProxy : public SnapshotLeaseProxy<AudioSnapshot>
{
  public:
    AudioLeaseProxy(os::AudioSessionService &audio,
                    os::ActivityManagerService &am);

    void onExpire(const Lease &lease) override;
    void onRenew(const Lease &lease) override;
    bool resourceHeld(const Lease &lease) override;

  private:
    AudioSnapshot snapshot(const Lease &lease) override;
    LeaseStat termStat(const Lease &lease, const AudioSnapshot &start,
                       const AudioSnapshot &now) override;

    os::AudioSessionService &audio_;
    os::ActivityManagerService &am_;
};

} // namespace leaseos::lease

#endif // LEASEOS_LEASE_PROXIES_AUDIO_PROXY_H
