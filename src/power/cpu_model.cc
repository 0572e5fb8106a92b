#include "power/cpu_model.h"

#include "sim/state_digest.h"

#include <algorithm>
#include <utility>

namespace leaseos::power {

CpuModel::CpuModel(sim::Simulator &sim, EnergyAccountant &accountant,
                   const DeviceProfile &profile)
    : PowerComponent(sim, accountant, profile, "cpu"),
      idleChannel_(accountant.makeChannel("cpu_idle")),
      busyChannel_(accountant.makeChannel("cpu_busy")),
      lastAdvance_(sim.now())
{
    updateWakeState();
    updatePower();
}

void
CpuModel::advance()
{
    sim::Time now = sim_.now();
    if (now <= lastAdvance_) {
        lastAdvance_ = now;
        return;
    }
    double dt = (now - lastAdvance_).seconds();
    if (awake_) {
        awakeSeconds_ += dt;
        double freq = currentFreq();
        for (const auto &[token, task] : tasks_) {
            cpuSeconds_[totalIndex(cpuSeconds_, task.uid)].second +=
                task.load * dt;
            normalizedCpuSeconds_[totalIndex(normalizedCpuSeconds_, task.uid)]
                .second += task.load * dt * freq;
        }
        if (dvfsEnabled_) {
            if (levelSeconds_.size() < profile_.dvfsLevels.size())
                levelSeconds_.resize(profile_.dvfsLevels.size(), 0.0);
            levelSeconds_[dvfsLevel_] += dt;
        }
    } else {
        asleepSeconds_ += dt;
    }
    lastAdvance_ = now;
}

void
CpuModel::updateWakeState()
{
    advance();
    bool awake = screenOn_ || wakeWindows_ > 0 ||
        !wakelockOwners_.empty() || !audioOwners_.empty();
    if (awake == awake_) return;
    awake_ = awake;
    for (const auto &fn : stateListeners_) fn(awake_);
    if (awake_) {
        // Flush paused app work. Waiters run as zero-delay events so the
        // wake transition completes before any app code runs.
        auto waiters = std::move(wakeWaiters_);
        wakeWaiters_.clear();
        for (auto &fn : waiters)
            sim_.schedule(sim::Time::zero(), std::move(fn));
    }
}

void
CpuModel::updatePower()
{
    if (!awake_) {
        accountant_.setPower(idleChannel_, profile_.cpuSleepMw,
                             {kSystemUid});
        updateBusyPower();
        return;
    }

    // Awake-idle baseline: attributed to whatever keeps the CPU awake.
    // Screen-on and wake windows are user/system initiated; wakelocks are
    // app-initiated. The wakelock attribution is the Table 5 "wasted
    // power" signal, so wakelock holders take the idle cost when the
    // screen is off. Sort + unique reproduces the old std::set ordering.
    if (!screenOn_ &&
        (!wakelockOwners_.empty() || !audioOwners_.empty())) {
        common::InlineVec<Uid, 8> owners;
        for (Uid u : wakelockOwners_) owners.push_back(u);
        for (Uid u : audioOwners_) owners.push_back(u);
        accountant_.setPower(idleChannel_, profile_.cpuIdleAwakeMw,
                             common::sortUnique(owners));
    } else {
        accountant_.setPower(idleChannel_, profile_.cpuIdleAwakeMw,
                             {kSystemUid});
    }
    updateBusyPower();
}

void
CpuModel::updateBusyPower()
{
    if (!awake_) {
        accountant_.setPowerShares(
            busyChannel_, std::span<const std::pair<Uid, double>>{});
        return;
    }

    // Busy power: per-task shares, total load capped at core count,
    // scaled by the DVFS operating point's power factor. Per-uid merging
    // accumulates in task (token) order and the final share list is
    // sorted by uid — both exactly as the old std::map produced, so the
    // accountant sees bit-identical shares in the same order.
    double total_load = currentLoad();
    double cap = static_cast<double>(profile_.cores);
    double scale = total_load > cap ? cap / total_load : 1.0;
    double per_core = profile_.cpuActivePerCoreMw * currentPowerFactor();
    UidTotals shares;
    for (const auto &[token, task] : tasks_)
        shares[totalIndex(shares, task.uid)].second +=
            task.load * scale * per_core;
    std::sort(shares.begin(), shares.end(),
              [](const auto &a, const auto &b) { return a.first < b.first; });
    accountant_.setPowerShares(busyChannel_, shares.span());
}

void
CpuModel::setWakelockOwners(std::span<const Uid> owners)
{
    advance();
    wakelockOwners_.assign(owners.begin(), owners.end());
    updateWakeState();
    updatePower();
}

void
CpuModel::setAudioSessionOwners(std::span<const Uid> owners)
{
    advance();
    audioOwners_.assign(owners.begin(), owners.end());
    updateWakeState();
    updatePower();
}

void
CpuModel::setScreenOn(bool on)
{
    advance();
    screenOn_ = on;
    updateWakeState();
    updatePower();
}

void
CpuModel::addWakeWindow(sim::Time duration)
{
    advance();
    ++wakeWindows_;
    updateWakeState();
    updatePower();
    sim_.schedule(duration, [this] {
        advance();
        --wakeWindows_;
        updateWakeState();
        updatePower();
    });
}

CpuModel::WorkToken
CpuModel::beginWork(Uid uid, double load)
{
    advance();
    WorkToken token = nextToken_++;
    tasks_.emplace_back(token, Task{uid, std::max(0.0, load)});
    updateGovernor();
    updateBusyPower();
    return token;
}

void
CpuModel::endWork(WorkToken token)
{
    advance();
    for (std::size_t i = 0; i < tasks_.size(); ++i) {
        if (tasks_[i].first == token) {
            tasks_.erase(i);
            break;
        }
    }
    updateGovernor();
    updateBusyPower();
}

void
CpuModel::runWorkFor(Uid uid, double load, sim::Time duration)
{
    WorkToken token = beginWork(uid, load);
    sim_.schedule(duration, [this, token] { endWork(token); });
}

double
CpuModel::currentLoad() const
{
    double load = 0.0;
    for (const auto &[token, task] : tasks_) load += task.load;
    return load;
}

void
CpuModel::notifyOnWake(sim::InlineCallback fn)
{
    if (awake_) {
        sim_.schedule(sim::Time::zero(), std::move(fn));
    } else {
        wakeWaiters_.push_back(std::move(fn));
    }
}

void
CpuModel::addStateListener(std::function<void(bool)> fn)
{
    stateListeners_.push_back(std::move(fn));
}

void
CpuModel::setDvfsEnabled(bool enabled)
{
    advance();
    dvfsEnabled_ = enabled && !profile_.dvfsLevels.empty();
    updateGovernor();
    updateBusyPower();
}

double
CpuModel::currentFreq() const
{
    if (!dvfsEnabled_) return 1.0;
    return profile_.dvfsLevels[dvfsLevel_].freq;
}

double
CpuModel::currentPowerFactor() const
{
    if (!dvfsEnabled_) return 1.0;
    return profile_.dvfsLevels[dvfsLevel_].powerFactor;
}

void
CpuModel::updateGovernor()
{
    if (!dvfsEnabled_) return;
    // Ondemand-style: pick the lowest operating point whose frequency
    // covers the demanded load with ~30 % headroom.
    double demand = std::min(currentLoad(),
                             static_cast<double>(profile_.cores));
    double needed =
        demand / static_cast<double>(profile_.cores) * 1.3;
    std::size_t level = profile_.dvfsLevels.size() - 1;
    for (std::size_t i = 0; i < profile_.dvfsLevels.size(); ++i) {
        if (profile_.dvfsLevels[i].freq >= needed) {
            level = i;
            break;
        }
    }
    dvfsLevel_ = level;
}

double
CpuModel::levelSeconds(std::size_t level)
{
    advance();
    return level < levelSeconds_.size() ? levelSeconds_[level] : 0.0;
}

double
CpuModel::normalizedCpuSeconds(Uid uid)
{
    advance();
    return totalOf(normalizedCpuSeconds_, uid);
}

double
CpuModel::cpuSeconds(Uid uid)
{
    advance();
    return totalOf(cpuSeconds_, uid);
}

double
CpuModel::awakeSeconds()
{
    advance();
    return awakeSeconds_;
}

double
CpuModel::asleepSeconds()
{
    advance();
    return asleepSeconds_;
}


void
CpuModel::digestState(sim::StateDigest &d) const
{
    d.u32s(wakelockOwners_);
    d.u32s(audioOwners_);
    d.u8(screenOn_ ? 1 : 0);
    d.i64(wakeWindows_);
    d.u8(awake_ ? 1 : 0);
    d.u64(tasks_.size());
    for (std::size_t i = 0; i < tasks_.size(); ++i) {
        d.u64(tasks_[i].first);
        d.u32(static_cast<std::uint32_t>(tasks_[i].second.uid));
        d.f64(tasks_[i].second.load);
    }
    d.u64(nextToken_);
    d.u64(wakeWaiters_.size()); // diagnostics; closures, not capturable
    d.u8(dvfsEnabled_ ? 1 : 0);
    d.u64(dvfsLevel_);
    d.u64(levelSeconds_.size());
    for (double s : levelSeconds_) d.f64(s);
    d.time(lastAdvance_);
    digestTotals(d, cpuSeconds_);
    digestTotals(d, normalizedCpuSeconds_);
    d.f64(awakeSeconds_);
    d.f64(asleepSeconds_);
}

} // namespace leaseos::power
