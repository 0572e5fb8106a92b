#ifndef LEASEOS_OS_AUDIO_SESSION_SERVICE_H
#define LEASEOS_OS_AUDIO_SESSION_SERVICE_H

/**
 * @file
 * Audio session management.
 *
 * The paper's §1 motivating example is the Facebook iOS release that
 * leaked audio sessions: the app finished playing but a code path skipped
 * the session close, "leaving the app doing nothing but staying awake in
 * the background draining the battery". We model audio the same way iOS
 * (and Android's media focus) does: an *open* session keeps the app
 * process runnable (an implicit wakelock) and the audio pipeline powered,
 * whether or not anything is audibly playing. Audio is one of the
 * resources Table 1 lists as leasable.
 */

#include <vector>

#include "os/binder.h"
#include "os/resource_service.h"
#include "power/audio_model.h"

namespace leaseos::os {

/** One audio session kernel object. */
struct AudioSession {
    struct Totals {
        double openSeconds = 0.0;
        double playingSeconds = 0.0;
    };

    Uid uid = kInvalidUid;
    bool live = false; ///< open (not closed)
    bool playing = false;
    bool suspended = false;
    bool enabled = false;
};

/**
 * Audio session service with lease/throttle interposition hooks.
 */
class AudioSessionService : public ResourceService<AudioSession>
{
  public:
    /** Draw of an open-but-silent session's pipeline (DSP powered). */
    static constexpr double kPipelineMw = 14.0;

    AudioSessionService(sim::Simulator &sim, power::CpuModel &cpu,
                        power::AudioModel &audio,
                        power::EnergyAccountant &accountant,
                        TokenAllocator &tokens);

    // ---- App-facing API -------------------------------------------------

    /** Open (acquire) an audio session. */
    TokenId
    openSession(Uid uid)
    {
        return create({.uid = uid, .live = true}, kResourceIpcLatency);
    }

    /** Begin/stop audible playback on an open session. */
    void startPlayback(TokenId token);
    void stopPlayback(TokenId token);

    /** Close (release) and free the session; playback stops with it. */
    void
    closeSession(TokenId token)
    {
        setLive(token, false, kBinderIpcLatency,
                [](AudioSession &session) { session.playing = false; });
        destroy(token);
    }

    bool isOpen(TokenId token) const { return isLive(token); }
    bool
    isPlaying(TokenId token) const
    {
        const AudioSession *session = find(token);
        return session && session->playing;
    }

    // ---- Metrics --------------------------------------------------------

    /** Time @p uid has had an enabled session open. */
    double openSeconds(Uid uid) { return totalsNow(uid).openSeconds; }

    /** Time @p uid spent audibly playing through enabled sessions. */
    double playingSeconds(Uid uid) { return totalsNow(uid).playingSeconds; }

  private:
    void accrue(double dt) override;
    void apply() override;

    power::AudioModel &audio_;
    power::EnergyAccountant &accountant_;
    power::ChannelId pipelineChannel_;

    /** Uids playing through an enabled session, sorted (as of apply()). */
    std::vector<Uid> lastPlaying_;
};

} // namespace leaseos::os

#endif // LEASEOS_OS_AUDIO_SESSION_SERVICE_H
