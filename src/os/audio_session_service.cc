#include "os/audio_session_service.h"

#include <set>

namespace leaseos::os {

AudioSessionService::AudioSessionService(
    sim::Simulator &sim, power::CpuModel &cpu, power::AudioModel &audio,
    power::EnergyAccountant &accountant, TokenAllocator &tokens)
    : ResourceService(sim, cpu, "audio", tokens), audio_(audio),
      accountant_(accountant),
      pipelineChannel_(accountant.makeChannel("audio_pipeline")),
      lastAdvance_(sim.now())
{
}

void
AudioSessionService::advance()
{
    sim::Time now = sim_.now();
    if (now <= lastAdvance_) {
        lastAdvance_ = now;
        return;
    }
    double dt = (now - lastAdvance_).seconds();
    for (const auto *entry : records_.live()) {
        const AudioSession &session = entry->second;
        if (!session.enabled) continue;
        auto &totals = records_.accrue(session.uid);
        totals.openSeconds += dt;
        if (session.playing) totals.playingSeconds += dt;
    }
    lastAdvance_ = now;
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

TokenId
AudioSessionService::openSession(Uid uid)
{
    chargeIpc(uid, kResourceIpcLatency);
    advance();
    TokenId token = tokens_.next();
    AudioSession session;
    session.uid = uid;
    session.live = true;
    records_.add(token, session);
    apply();
    for (auto *l : listeners_) l->onCreated(token, uid);
    for (auto *l : listeners_) l->onAcquired(token, uid);
    return token;
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

void
AudioSessionService::closeSession(TokenId token)
{
    AudioSession *session = records_.find(token);
    if (!session || !session->live) return;
    Uid uid = session->uid;
    chargeIpc(uid, kBinderIpcLatency);
    advance();
    records_.setLive(token, false);
    session->playing = false;
    apply();
    for (auto *l : listeners_) l->onReleased(token, uid);
}

void
AudioSessionService::destroy(TokenId token)
{
    const AudioSession *session = records_.find(token);
    if (!session) return;
    advance();
    Uid uid = session->uid;
    records_.erase(token);
    tokens_.retire(token);
    apply();
    for (auto *l : listeners_) l->onDestroyed(token, uid);
}

double
AudioSessionService::openSeconds(Uid uid)
{
    advance();
    return records_.totals(uid).openSeconds;
}

double
AudioSessionService::playingSeconds(Uid uid)
{
    advance();
    return records_.totals(uid).playingSeconds;
}

} // namespace leaseos::os
