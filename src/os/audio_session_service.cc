#include "os/audio_session_service.h"

#include <algorithm>

namespace leaseos::os {

AudioSessionService::AudioSessionService(
    sim::Simulator &sim, power::CpuModel &cpu, power::AudioModel &audio,
    power::EnergyAccountant &accountant, TokenAllocator &tokens)
    : ResourceService(sim, cpu, "audio", tokens), audio_(audio),
      accountant_(accountant),
      pipelineChannel_(accountant.makeChannel("audio_pipeline"))
{
}

void
AudioSessionService::accrue(double dt)
{
    for (const auto &[token, session] : records_) {
        if (!session.enabled) continue;
        auto &totals = totals_[session.uid];
        totals.openSeconds += dt;
        if (session.playing) totals.playingSeconds += dt;
    }
}

void
AudioSessionService::apply()
{
    Owners playing;
    const Owners open =
        sweepOwners([&](TokenId, AudioSession &session, bool) {
            if (session.playing) playing.push_back(session.uid);
        });
    // Open sessions keep the pipeline powered and the app runnable (the
    // iOS background-audio semantics behind the Facebook leak).
    accountant_.setPower(pipelineChannel_, open.empty() ? 0.0 : kPipelineMw,
                         open.span());
    cpu_.setAudioSessionOwners(open.span());
    // Route audible output per uid.
    const std::span<const Uid> nowPlaying = common::sortUnique(playing);
    for (Uid uid : lastPlaying_)
        if (!std::binary_search(nowPlaying.begin(), nowPlaying.end(), uid))
            audio_.setPlaying(uid, false);
    for (Uid uid : nowPlaying) audio_.setPlaying(uid, true);
    lastPlaying_.assign(nowPlaying.begin(), nowPlaying.end());
}

void
AudioSessionService::startPlayback(TokenId token)
{
    AudioSession *session = find(token);
    if (!session || !session->live) return;
    chargeIpc(session->uid, kBinderIpcLatency);
    advance();
    session->playing = true;
    apply();
}

void
AudioSessionService::stopPlayback(TokenId token)
{
    AudioSession *session = find(token);
    if (!session) return;
    chargeIpc(session->uid, kBinderIpcLatency);
    advance();
    session->playing = false;
    apply();
}

} // namespace leaseos::os
