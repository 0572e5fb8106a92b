#include "power/device_profile.h"

#include <algorithm>
#include <cctype>
#include <stdexcept>

namespace leaseos::power::profiles {

namespace {

/**
 * Baseline numbers are in the range of published power_profile.xml values
 * and smartphone power studies; what matters for the reproduction is the
 * relative magnitudes (GPS search >> track, idle-awake CPU ~tens of mW,
 * busy CPU ~hundreds of mW per core, screen dominant when on).
 */
DeviceProfile
base()
{
    DeviceProfile p;
    p.cpuSleepMw = 5.0;
    p.cpuIdleAwakeMw = 32.0;
    p.cpuActivePerCoreMw = 340.0;
    p.cores = 4;
    p.perfFactor = 1.0;
    p.screenBaseMw = 280.0;
    p.screenFullMw = 420.0;
    p.gpsSearchMw = 112.0;
    p.gpsTrackMw = 68.0;
    p.wifiIdleMw = 4.0;
    p.wifiLockMw = 16.0;
    p.wifiActiveMw = 240.0;
    p.wifiThroughputBps = 20e6 / 8.0;
    p.cellIdleMw = 8.0;
    p.accelerometerMw = 18.0;
    p.orientationMw = 11.0;
    p.gyroscopeMw = 25.0;
    p.lightMw = 2.0;
    p.audioMw = 85.0;
    p.batteryVolts = 3.85;
    p.ecosystemLoad = 0.5;
    // Three operating points; power tracks f*V^2 (superlinear in f).
    p.dvfsLevels = {{0.45, 0.28}, {0.7, 0.55}, {1.0, 1.0}};
    return p;
}

} // namespace

DeviceProfile
pixelXl()
{
    DeviceProfile p = base();
    p.name = "Pixel XL";
    p.batteryMah = 3450.0;
    p.perfFactor = 1.0;
    p.ecosystemLoad = 1.0; // heavily used (§2.1)
    return p;
}

DeviceProfile
nexus6()
{
    DeviceProfile p = base();
    p.name = "Nexus 6";
    p.batteryMah = 3220.0;
    p.perfFactor = 0.75;
    p.cpuIdleAwakeMw = 38.0;
    p.cpuActivePerCoreMw = 380.0;
    p.ecosystemLoad = 0.2; // lightly used (§2.1)
    return p;
}

DeviceProfile
nexus4()
{
    DeviceProfile p = base();
    p.name = "Nexus 4";
    p.batteryMah = 2100.0;
    p.perfFactor = 0.55;
    p.cpuIdleAwakeMw = 42.0;
    p.cpuActivePerCoreMw = 420.0;
    p.screenBaseMw = 320.0;
    p.ecosystemLoad = 0.2;
    return p;
}

DeviceProfile
galaxyS4()
{
    DeviceProfile p = base();
    p.name = "Galaxy S4";
    p.batteryMah = 2600.0;
    p.perfFactor = 0.6;
    p.cpuIdleAwakeMw = 40.0;
    p.cpuActivePerCoreMw = 400.0;
    p.ecosystemLoad = 1.0;
    return p;
}

DeviceProfile
motoG()
{
    DeviceProfile p = base();
    p.name = "Moto G";
    p.batteryMah = 2070.0;
    p.perfFactor = 0.45; // low-end: work takes ~2x as long as on the Nexus
    p.cpuIdleAwakeMw = 45.0;
    p.cpuActivePerCoreMw = 430.0;
    p.screenBaseMw = 330.0;
    p.ecosystemLoad = 1.0;
    return p;
}

DeviceProfile
nexus5x()
{
    DeviceProfile p = base();
    p.name = "Nexus 5X";
    p.batteryMah = 2700.0;
    p.perfFactor = 0.85;
    p.ecosystemLoad = 0.4;
    return p;
}

DeviceProfile
byName(const std::string &name)
{
    std::string key = name;
    std::transform(key.begin(), key.end(), key.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    key.erase(std::remove_if(key.begin(), key.end(),
                             [](unsigned char c) { return std::isspace(c); }),
              key.end());
    if (key == "pixelxl") return pixelXl();
    if (key == "nexus6") return nexus6();
    if (key == "nexus4") return nexus4();
    if (key == "galaxys4" || key == "samsung") return galaxyS4();
    if (key == "motog" || key == "motorola") return motoG();
    if (key == "nexus5x") return nexus5x();
    throw std::out_of_range("unknown device profile: " + name);
}

} // namespace leaseos::power::profiles
