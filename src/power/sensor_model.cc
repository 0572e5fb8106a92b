#include "power/sensor_model.h"

#include "sim/state_digest.h"

#include <algorithm>

namespace leaseos::power {

namespace {

double &
accum(common::InlineVec<std::pair<Uid, double>, 8> &table, Uid uid)
{
    for (auto &entry : table)
        if (entry.first == uid) return entry.second;
    return table.emplace_back(uid, 0.0).second;
}

} // namespace

const char *
sensorTypeName(SensorType t)
{
    switch (t) {
      case SensorType::Accelerometer: return "accelerometer";
      case SensorType::Orientation: return "orientation";
      case SensorType::Gyroscope: return "gyroscope";
      case SensorType::Light: return "light";
    }
    return "unknown";
}

SensorModel::SensorModel(sim::Simulator &sim, EnergyAccountant &accountant,
                         const DeviceProfile &profile)
    : PowerComponent(sim, accountant, profile, "sensors"),
      channel_(accountant.makeChannel("sensors"))
{
    updatePower();
}

double
SensorModel::sensorMw(SensorType type) const
{
    switch (type) {
      case SensorType::Accelerometer: return profile_.accelerometerMw;
      case SensorType::Orientation: return profile_.orientationMw;
      case SensorType::Gyroscope: return profile_.gyroscopeMw;
      case SensorType::Light: return profile_.lightMw;
    }
    return 0.0;
}

void
SensorModel::updatePower()
{
    // Visit types in enum order and uids in sorted order — the exact
    // sequence the old nested std::map produced, so per-uid sums
    // accumulate in the same floating-point order.
    common::InlineVec<std::pair<Uid, double>, 8> merged;
    for (std::size_t t = 0; t < uses_.size(); ++t) {
        const UserList &users = uses_[t];
        if (users.empty()) continue;
        double each = sensorMw(static_cast<SensorType>(t)) /
            static_cast<double>(users.size());
        for (Uid uid : users) accum(merged, uid) += each;
    }
    std::sort(merged.begin(), merged.end(),
              [](const auto &a, const auto &b) { return a.first < b.first; });
    accountant_.setPowerShares(channel_, merged.span());
}

void
SensorModel::setUses(std::span<const std::pair<SensorType, Uid>> uses)
{
    for (UserList &users : uses_) users.clear();
    for (const auto &[type, uid] : uses) usersFor(type).push_back(uid);
    for (UserList &users : uses_) common::sortUnique(users);
    updatePower();
}

void
SensorModel::digestState(sim::StateDigest &d) const
{
    for (const UserList &users : uses_) {
        d.u64(users.size());
        for (Uid uid : users) d.u32(static_cast<std::uint32_t>(uid));
    }
}

} // namespace leaseos::power
