#include "power/energy_accountant.h"

#include <algorithm>
#include <bit>
#include <cassert>

#include "obs/trace.h"
#include "sim/state_digest.h"

namespace leaseos::power {

EnergyAccountant::EnergyAccountant(sim::Simulator &sim)
    : sim_(sim), metrics_(obs::MetricRegistry::current())
{
    if (metrics_)
        metrics_->boundCounter("power.channel_commits", [this] {
            return static_cast<double>(commits_);
        });
}

ChannelId
EnergyAccountant::makeChannel(std::string name)
{
    channels_.emplace_back();
    channels_.back().name = std::move(name);
    channels_.back().since = sim_.now();
    const auto ch = static_cast<ChannelId>(channels_.size() - 1);
    if (metrics_)
        metrics_->boundGauge("power." + channels_.back().name + ".mj",
                             [this, ch] { return channelEnergyMj(ch); });
    return ch;
}

std::uint32_t
EnergyAccountant::uidSlot(Uid uid)
{
    // Linear scan: a device hosts a handful of uids, and this only runs
    // when a channel's shares change, never in commit().
    std::size_t slot = findSlot(uid);
    if (slot == uids_.size()) {
        uids_.push_back(uid);
        uidMj_.push_back(0.0);
    }
    return static_cast<std::uint32_t>(slot);
}

template <typename ShareAt>
void
EnergyAccountant::assign(ChannelId ch, std::size_t n, ShareAt shareAt)
{
    assert(ch < channels_.size());
    Channel &c = channels_[ch];
    if (c.shares.size() == n) {
        std::size_t i = 0;
        for (; i < n; ++i) {
            const auto [uid, mw] = shareAt(i);
            if (c.shares[i].uid != uid ||
                std::bit_cast<std::uint64_t>(c.shares[i].mw) !=
                    std::bit_cast<std::uint64_t>(mw))
                break;
        }
        if (i == n) return; // same uids, order and mW bits: nothing moves
    }

    commit(ch);
    c.shares.clear();
    for (std::size_t i = 0; i < n; ++i) {
        const auto [uid, mw] = shareAt(i);
        c.shares.push_back(Share{uid, uidSlot(uid), mw});
    }
    if (c.uidMj.size() < uids_.size()) c.uidMj.resize(uids_.size(), 0.0);
}

void
EnergyAccountant::setPowerShares(ChannelId ch,
                                 std::span<const std::pair<Uid, double>>
                                     sharesMw)
{
    assign(ch, sharesMw.size(),
           [sharesMw](std::size_t i) { return sharesMw[i]; });
}

void
EnergyAccountant::setPower(ChannelId ch, double totalMw,
                           std::span<const Uid> owners)
{
    // No owners: one system share of the whole draw.
    std::size_t n = totalMw > 0.0 ? std::max<std::size_t>(owners.size(), 1)
                                  : 0;
    double each = owners.empty()
        ? totalMw
        : totalMw / static_cast<double>(owners.size());
    assign(ch, n, [owners, each](std::size_t i) {
        return std::pair{owners.empty() ? kSystemUid : owners[i], each};
    });
}

void
EnergyAccountant::commit(ChannelId ch)
{
    Channel &c = channels_[ch];
    ++commits_;
    sim::Time now = sim_.now();
    if (now > c.since) {
        // Share order (and therefore floating-point accumulation order) is
        // exactly the order the caller supplied — part of the determinism
        // contract, so results stay byte-identical across refactors.
        double dt = (now - c.since).seconds();
        for (const Share &s : c.shares) {
            double mj = s.mw * dt;
            c.energyMj += mj;
            c.uidMj[s.slot] += mj;
            totalMj_ += mj;
            uidMj_[s.slot] += mj;
        }
    }
    c.since = now;
#if defined(LEASEOS_TRACING)
    // Channel id rides in the lease-id field; energy (mJ) in the payload.
    // Commits happen per power change, so decimate 1-in-16 per category.
    if (obs::TraceBuffer *trace = obs::TraceBuffer::current())
        trace->emitSampled(15, now, obs::TraceCategory::Power,
                           obs::TraceCode::PowerSync, kSystemUid, ch,
                           obs::payloadFromDouble(c.energyMj));
#endif
}

std::size_t
EnergyAccountant::findSlot(Uid uid) const
{
    std::size_t i = 0;
    while (i < uids_.size() && uids_[i] != uid) ++i;
    return i;
}

double
EnergyAccountant::addPending(double mj, const Channel &c,
                             std::size_t slot) const
{
    // commit()'s order, so a read gives the bits of a commit and a read.
    sim::Time now = sim_.now();
    double dt = now > c.since ? (now - c.since).seconds() : 0.0;
    for (const Share &s : c.shares)
        if (slot == kAnySlot || s.slot == slot) mj += s.mw * dt;
    return mj;
}

double
EnergyAccountant::totalEnergyMj() const
{
    double mj = totalMj_;
    for (const Channel &c : channels_) mj = addPending(mj, c, kAnySlot);
    return mj;
}

double
EnergyAccountant::uidEnergyMj(Uid uid) const
{
    std::size_t slot = findSlot(uid);
    if (slot == uids_.size()) return 0.0;
    double mj = uidMj_[slot];
    for (const Channel &c : channels_) mj = addPending(mj, c, slot);
    return mj;
}

double
EnergyAccountant::channelEnergyMj(ChannelId ch) const
{
    assert(ch < channels_.size());
    return addPending(channels_[ch].energyMj, channels_[ch], kAnySlot);
}

double
EnergyAccountant::uidChannelEnergyMj(Uid uid, ChannelId ch) const
{
    assert(ch < channels_.size());
    const Channel &c = channels_[ch];
    std::size_t slot = findSlot(uid);
    // The channel's table may lag the global uid table if this uid never
    // drew power here.
    return slot < c.uidMj.size() ? addPending(c.uidMj[slot], c, slot) : 0.0;
}

double
EnergyAccountant::totalPowerMw() const
{
    double mw = 0.0;
    for (const auto &ch : channels_)
        for (const Share &s : ch.shares) mw += s.mw;
    return mw;
}

double
EnergyAccountant::uidPowerMw(Uid uid) const
{
    double mw = 0.0;
    for (const auto &ch : channels_)
        for (const Share &s : ch.shares)
            if (s.uid == uid) mw += s.mw;
    return mw;
}

const std::string &
EnergyAccountant::channelName(ChannelId ch) const
{
    assert(ch < channels_.size());
    return channels_[ch].name;
}

ChannelId
EnergyAccountant::channelByName(const std::string &name) const
{
    for (ChannelId ch = 0; ch < channels_.size(); ++ch)
        if (channels_[ch].name == name) return ch;
    return static_cast<ChannelId>(channels_.size());
}

std::vector<Uid>
EnergyAccountant::knownUids() const
{
    std::vector<Uid> uids(uids_);
    std::sort(uids.begin(), uids.end());
    return uids;
}

void
EnergyAccountant::digestState(sim::StateDigest &d) const
{
    d.f64(totalMj_);
    d.u64(uids_.size());
    for (std::size_t i = 0; i < uids_.size(); ++i) {
        d.u32(static_cast<std::uint32_t>(uids_[i]));
        d.f64(uidMj_[i]);
    }
    d.u64(channels_.size());
    for (const Channel &c : channels_) {
        d.str(c.name);
        d.time(c.since);
        d.f64(c.energyMj);
        d.u64(c.uidMj.size());
        for (double mj : c.uidMj) d.f64(mj);
        d.u64(c.shares.size());
        for (std::size_t i = 0; i < c.shares.size(); ++i) {
            d.u32(static_cast<std::uint32_t>(c.shares[i].uid));
            d.u32(c.shares[i].slot);
            d.f64(c.shares[i].mw);
        }
    }
}

} // namespace leaseos::power
