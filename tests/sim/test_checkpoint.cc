/**
 * @file
 * Checkpoint wire-format tests (DESIGN.md §11).
 *
 * The blob framing is a compatibility contract — tools/tracereplay and
 * future builds decode blobs produced today — so beyond round-trip
 * coverage these tests pin the exact bytes of a known frame. A failing
 * byte pin means the wire format changed: bump kCheckpointFormatVersion
 * (or the section version) instead of silently re-shaping the encoding.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "sim/checkpoint.h"

namespace leaseos::sim {
namespace {

std::string
hex(const std::vector<std::uint8_t> &bytes)
{
    static const char digits[] = "0123456789abcdef";
    std::string out;
    out.reserve(bytes.size() * 2);
    for (std::uint8_t b : bytes) {
        out.push_back(digits[b >> 4]);
        out.push_back(digits[b & 0xf]);
    }
    return out;
}

/**
 * A 57-byte frame with a valid digest whose only section, "x", claims a
 * body of 2^64 - 17 bytes. Added to the reader's position, that length
 * wraps to an offset behind it.
 */
std::vector<std::uint8_t>
wrappedLengthBlob()
{
    CheckpointWriter w;
    w.beginSection("x", 1);
    w.u64(0);
    w.endSection();
    std::vector<std::uint8_t> blob = w.finish();
    auto putLe64 = [&blob](std::size_t at, std::uint64_t v) {
        for (std::size_t i = 0; i < 8; ++i)
            blob[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
    };
    // Header 32 bytes, then u32 nameLen | "x" | u32 version | u64 bodyLen.
    putLe64(32 + 4 + 1 + 4, ~std::uint64_t{0} - 16);
    putLe64(24, checkpointDigest(blob.data() + 32, blob.size() - 32));
    return blob;
}

TEST(CheckpointWireTest, ScalarRoundTrip)
{
    CheckpointWriter w;
    w.beginSection("scalars", 3);
    w.u8(0xab);
    w.u32(0xdeadbeef);
    w.u64(0x0123456789abcdefULL);
    w.i64(-42);
    w.f64(-1234.56789);
    w.time(Time::fromMillis(1500));
    w.str("Pixel XL");
    w.str("");
    w.endSection();
    std::vector<std::uint8_t> blob = w.finish();

    CheckpointReader r(blob);
    EXPECT_EQ(r.peekSection(), "scalars");
    EXPECT_EQ(r.beginSection("scalars"), 3u);
    EXPECT_EQ(r.u8(), 0xab);
    EXPECT_EQ(r.u32(), 0xdeadbeefu);
    EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
    EXPECT_EQ(r.i64(), -42);
    EXPECT_EQ(r.f64(), -1234.56789);
    EXPECT_EQ(r.time(), Time::fromMillis(1500));
    EXPECT_EQ(r.str(), "Pixel XL");
    EXPECT_EQ(r.str(), "");
    r.endSection();
    EXPECT_TRUE(r.atEnd());
    EXPECT_EQ(r.peekSection(), "");
}

TEST(CheckpointWireTest, GoldenFrameBytesPinned)
{
    // A fixed two-section blob. These bytes are the on-disk format;
    // any change here must come with a format/section version bump.
    CheckpointWriter w;
    w.beginSection("a", 1);
    w.u8(0x11);
    w.u32(0x22334455);
    w.endSection();
    w.beginSection("bb", 2);
    w.u64(0x66778899aabbccddULL);
    w.endSection();
    std::vector<std::uint8_t> blob = w.finish();

    EXPECT_EQ(hex(blob),
              // header: magic "LOSCKPT1" | format=1 | reserved
              "4c4f53434b505431" "01000000" "00000000"
              // u64 payloadSize=48 | u64 fnv1a64(payload)
              "3000000000000000" "3e9ad87e1892c156"
              // section "a" v1, body 5 bytes: u8 11, u32 55443322(le)
              "01000000" "61" "01000000" "0500000000000000"
              "11" "55443322"
              // section "bb" v2, body 8 bytes: u64 ddccbbaa99887766(le)
              "02000000" "6262" "02000000" "0800000000000000"
              "ddccbbaa99887766");
}

TEST(CheckpointWireTest, DigestCorruptionDetected)
{
    CheckpointWriter w;
    w.beginSection("s", 1);
    w.u64(7);
    w.endSection();
    std::vector<std::uint8_t> blob = w.finish();

    // Flip one payload byte: the frame digest must catch it.
    std::vector<std::uint8_t> bad = blob;
    bad.back() ^= 0x01;
    EXPECT_THROW(CheckpointReader r(bad), CheckpointError);

    // Truncation (frame shorter than payloadSize claims).
    std::vector<std::uint8_t> trunc(blob.begin(), blob.end() - 3);
    EXPECT_THROW(CheckpointReader r(trunc), CheckpointError);

    // Bad magic.
    std::vector<std::uint8_t> magic = blob;
    magic[0] = 'X';
    EXPECT_THROW(CheckpointReader r(magic), CheckpointError);

    // Unknown top-level format version.
    std::vector<std::uint8_t> fmt = blob;
    fmt[8] = 0x7f;
    EXPECT_THROW(CheckpointReader r(fmt), CheckpointError);

    // The untampered frame still loads.
    CheckpointReader ok(blob);
    EXPECT_EQ(ok.beginSection("s"), 1u);
    EXPECT_EQ(ok.u64(), 7u);
}

TEST(CheckpointWireTest, SectionDisciplineEnforced)
{
    CheckpointWriter w;
    w.beginSection("first", 1);
    w.u32(1);
    w.endSection();
    w.beginSection("second", 1);
    w.u32(2);
    w.endSection();
    std::vector<std::uint8_t> blob = w.finish();

    // Wrong expected name.
    {
        CheckpointReader r(blob);
        EXPECT_THROW(r.beginSection("second"), CheckpointError);
    }
    // Leaving body bytes unread is an error (catches layout drift).
    {
        CheckpointReader r(blob);
        r.beginSection("first");
        EXPECT_THROW(r.endSection(), CheckpointError);
    }
    // Reading past the section body is an error.
    {
        CheckpointReader r(blob);
        r.beginSection("first");
        r.u32();
        EXPECT_THROW(r.u32(), CheckpointError);
    }
    // nextSection walks generically; skipSection closes.
    {
        CheckpointReader r(blob);
        std::uint32_t version = 0;
        EXPECT_EQ(r.nextSection(version), "first");
        r.skipSection();
        EXPECT_EQ(r.peekSection(), "second");
        EXPECT_EQ(r.nextSection(version), "second");
        EXPECT_EQ(version, 1u);
        EXPECT_EQ(r.sectionRemaining(), 4u);
        EXPECT_EQ(r.u32(), 2u);
        r.endSection();
        EXPECT_TRUE(r.atEnd());
        EXPECT_THROW(r.nextSection(version), CheckpointError);
    }
    // A body length that would wrap the reader's position is refused,
    // not turned into a backwards skip.
    {
        std::vector<std::uint8_t> wrapped = wrappedLengthBlob();
        ASSERT_EQ(wrapped.size(), 57u);
        CheckpointReader r(wrapped); // frame and digest are valid
        EXPECT_THROW(r.peekSection(), CheckpointError);
        std::uint32_t version = 0;
        EXPECT_THROW(r.nextSection(version), CheckpointError);
    }
}

} // namespace
} // namespace leaseos::sim
