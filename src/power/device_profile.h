#ifndef LEASEOS_POWER_DEVICE_PROFILE_H
#define LEASEOS_POWER_DEVICE_PROFILE_H

/**
 * @file
 * Per-phone power/capacity profiles.
 *
 * The paper evaluates on five phones (Google Pixel XL, Nexus 6, Nexus 4,
 * Samsung Galaxy S4, Motorola Moto G) plus a Nexus 5X rigged to the Monsoon
 * monitor. Each profile carries component power draws (mW) in the style of
 * Android's power_profile.xml, battery capacity, a CPU performance factor
 * (work on a slow CPU takes longer, lengthening resource holds), and an
 * "ecosystem load" factor modelling how heavily used the phone is (heavily
 * used phones have more background interference, which §2.3 shows inflates
 * absolute holding times ~2x between phones).
 */

#include <string>
#include <vector>

namespace leaseos::power {

/**
 * Static description of one phone model's power characteristics.
 */
struct DeviceProfile {
    std::string name;

    // CPU
    double cpuSleepMw;        ///< deep sleep floor (system-attributed)
    double cpuIdleAwakeMw;    ///< awake-but-idle draw (wakelock waste)
    double cpuActivePerCoreMw;///< per-core draw at full load (top level)
    int cores;
    double perfFactor;        ///< relative speed; 1.0 = Pixel XL

    /**
     * DVFS operating point: relative frequency and the matching relative
     * per-core power (P ~ f * V^2, so power falls faster than frequency).
     */
    struct DvfsLevel {
        double freq;    ///< relative to the top level (1.0)
        double powerFactor; ///< relative per-core power at full load
    };

    /** Ascending operating points; the last entry is the top level. */
    std::vector<DvfsLevel> dvfsLevels;

    // Screen
    double screenBaseMw;      ///< panel on at minimum brightness
    double screenFullMw;      ///< additional draw at full brightness

    // GPS
    double gpsSearchMw;       ///< acquiring a lock (the expensive state)
    double gpsTrackMw;        ///< lock held, periodic fixes

    // Radios
    double wifiIdleMw;
    double wifiLockMw;        ///< high-perf lock held, no traffic
    double wifiActiveMw;      ///< during a transfer burst
    double wifiThroughputBps; ///< used to size transfer bursts
    double cellIdleMw;

    // Sensors
    double accelerometerMw;
    double orientationMw;
    double gyroscopeMw;
    double lightMw;

    // Audio
    double audioMw;

    // Battery
    double batteryMah;
    double batteryVolts;

    /** How heavily loaded the phone's app ecosystem is (>= 0). */
    double ecosystemLoad;

    /** Usable battery energy in millijoules. */
    double
    batteryEnergyMj() const
    {
        return batteryMah * batteryVolts * 3.6 * 1000.0;
    }
};

/** The phones from the paper's experiment setups (§2.1, §7.1). */
namespace profiles {
DeviceProfile pixelXl();
DeviceProfile nexus6();
DeviceProfile nexus4();
DeviceProfile galaxyS4();
DeviceProfile motoG();
DeviceProfile nexus5x();
/** Look up by (case-insensitive) name; throws std::out_of_range. */
DeviceProfile byName(const std::string &name);
} // namespace profiles

} // namespace leaseos::power

#endif // LEASEOS_POWER_DEVICE_PROFILE_H
