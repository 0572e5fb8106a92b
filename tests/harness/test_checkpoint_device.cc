/**
 * @file
 * Whole-device checkpoint tests (DESIGN.md §11).
 *
 * Device::saveCheckpoint() is a save-only state digest: equal device
 * state must serialize to byte-identical blobs, so two runs of the same
 * Table-5 cell can be compared interval by interval through the blobs'
 * digests alone.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "apps/registry.h"
#include "harness/device.h"
#include "sim/checkpoint.h"

namespace leaseos::harness {
namespace {

/** K-9 Mail's Table-5 cell under LeaseOS, run for @p minutes. */
std::vector<std::uint8_t>
k9Blob(double minutes)
{
    const apps::BuggyAppSpec &k9 = apps::buggySpec("k9");
    Device dev(
        DeviceConfig{}.withMode(MitigationMode::LeaseOS).withSeed(0xabc));
    k9.trigger(dev);
    k9.install(dev);
    dev.start();
    dev.runFor(sim::Time::fromMinutes(minutes));
    return dev.saveCheckpoint();
}

TEST(DeviceCheckpointTest, BlobsAreDeterministic)
{
    std::vector<std::uint8_t> a = k9Blob(10.0);
    std::vector<std::uint8_t> b = k9Blob(10.0);
    ASSERT_FALSE(a.empty());
    EXPECT_EQ(a, b) << "equal device state must yield byte-identical blobs";

    // The digest fingerprints state: a later instant serializes differently.
    EXPECT_NE(a, k9Blob(11.0));

    // Section order is part of the format; LeaseOS adds "leases", and the
    // apps section no longer carries per-app behaviour state (version 2).
    sim::CheckpointReader r(a);
    std::vector<std::string> names;
    std::uint32_t version = 0;
    while (!r.atEnd()) {
        names.push_back(r.nextSection(version));
        r.skipSection();
    }
    EXPECT_EQ(names, (std::vector<std::string>{
                         "meta", "sim", "rng", "energy", "battery", "cpu",
                         "screen", "gps", "radio", "sensors", "audio", "bt",
                         "profiler", "leases", "apps"}));
    EXPECT_EQ(version, 2u);
}

} // namespace
} // namespace leaseos::harness
