#include "os/audio_session_service.h"

#include <set>

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
    for (const auto *entry : records_.live()) {
        const AudioSession &session = entry->second;
        if (!session.enabled) continue;
        auto &totals = records_.accrue(session.uid);
        totals.openSeconds += dt;
        if (session.playing) totals.playingSeconds += dt;
    }
}

void
AudioSessionService::apply()
{
    std::set<Uid> open_owners;
    std::map<Uid, bool> playing;
    records_.sweep([&](TokenId, AudioSession &session) {
        session.enabled = shouldEnable(session);
        if (session.enabled) {
            open_owners.insert(session.uid);
            if (session.playing) playing[session.uid] = true;
        }
    });
    // Open sessions keep the pipeline powered and the app runnable (the
    // iOS background-audio semantics behind the Facebook leak).
    std::vector<Uid> owners(open_owners.begin(), open_owners.end());
    accountant_.setPower(pipelineChannel_,
                         open_owners.empty() ? 0.0 : kPipelineMw, owners);
    cpu_.setAudioSessionOwners(owners);
    // Route audible output per uid.
    for (const auto &[uid, on] : lastPlaying_)
        if (!playing.count(uid)) audio_.setPlaying(uid, false);
    for (const auto &[uid, on] : playing) audio_.setPlaying(uid, true);
    lastPlaying_ = playing;
}

void
AudioSessionService::startPlayback(TokenId token)
{
    AudioSession *session = records_.find(token);
    if (!session || !session->live) return;
    chargeIpc(session->uid, kBinderIpcLatency);
    advance();
    session->playing = true;
    apply();
}

void
AudioSessionService::stopPlayback(TokenId token)
{
    AudioSession *session = records_.find(token);
    if (!session) return;
    chargeIpc(session->uid, kBinderIpcLatency);
    advance();
    session->playing = false;
    apply();
}

} // namespace leaseos::os
