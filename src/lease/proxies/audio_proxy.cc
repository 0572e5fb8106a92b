#include "lease/proxies/audio_proxy.h"

#include "lease/utility/generic_utility.h"

namespace leaseos::lease {

AudioLeaseProxy::AudioLeaseProxy(os::AudioSessionService &audio,
                                 os::ActivityManagerService &am)
    : SnapshotLeaseProxy(ResourceType::Audio), audio_(audio), am_(am)
{
    audio_.addListener(this);
}

void
AudioLeaseProxy::onExpire(const Lease &lease)
{
    audio_.suspend(lease.token);
}

void
AudioLeaseProxy::onRenew(const Lease &lease)
{
    audio_.restore(lease.token);
}

bool
AudioLeaseProxy::resourceHeld(const Lease &lease)
{
    return audio_.isOpen(lease.token);
}

AudioSnapshot
AudioLeaseProxy::snapshot(const Lease &lease)
{
    AudioSnapshot s;
    s.openSeconds = audio_.openSeconds(lease.uid);
    s.playingSeconds = audio_.playingSeconds(lease.uid);
    s.uiUpdates = am_.uiUpdateCount(lease.uid);
    s.interactions = am_.userInteractionCount(lease.uid);
    return s;
}

LeaseStat
AudioLeaseProxy::termStat(const Lease &lease, const AudioSnapshot &start,
                          const AudioSnapshot &now)
{
    LeaseStat stat;
    stat.termStart = lease.termStart;
    stat.termEnd = lease.termStart + lease.termLength;
    stat.holdingSeconds = now.openSeconds - start.openSeconds;
    stat.usageSeconds = now.playingSeconds - start.playingSeconds;
    stat.uiUpdates = now.uiUpdates - start.uiUpdates;
    stat.interactions = now.interactions - start.interactions;
    stat.heldAtTermEnd = audio_.isOpen(lease.token);

    // Audible output is its own utility evidence; a silent open session
    // only has whatever UI evidence the app produces.
    utility::Signals signals;
    signals.termSeconds = stat.termSeconds();
    signals.usageSeconds = stat.usageSeconds;
    signals.uiUpdates = stat.uiUpdates;
    signals.interactions = stat.interactions;
    if (stat.usageSeconds > 0.0) {
        stat.utilityScore =
            utility::genericScore(ResourceType::Audio, signals);
    } else {
        signals.usageSeconds = 0.0;
        stat.utilityScore =
            utility::genericScore(ResourceType::Wakelock, signals);
    }
    return stat;
}

} // namespace leaseos::lease
