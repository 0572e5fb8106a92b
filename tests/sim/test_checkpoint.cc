/**
 * @file
 * State digest tests (DESIGN.md §11).
 *
 * A StateDigest is FNV-1a-64 over the little-endian bytes of the fields
 * fed to it. The known answers pin the hash; the concatenation test pins
 * the byte encoding of each typed call, so a digest taken field by field
 * equals the hash of the bytes those fields would occupy end to end.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string_view>
#include <vector>

#include "sim/state_digest.h"

namespace leaseos::sim {
namespace {

/** FNV-1a-64 over a byte range. */
std::uint64_t
fnvOf(const std::uint8_t *data, std::size_t size)
{
    StateDigest d;
    d.bytes(data, size);
    return d.value();
}

std::uint64_t
fnvOf(std::string_view text)
{
    return fnvOf(reinterpret_cast<const std::uint8_t *>(text.data()),
                 text.size());
}

/** Append the low @p n bytes of @p v, little-endian. */
void
putLe(std::vector<std::uint8_t> &out, std::uint64_t v, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

TEST(StateDigestTest, Fnv1aKnownAnswers)
{
    // The published FNV-1a 64-bit test vectors.
    EXPECT_EQ(fnvOf(""), 0xcbf29ce484222325ULL);
    EXPECT_EQ(fnvOf("a"), 0xaf63dc4c8601ec8cULL);
    EXPECT_EQ(fnvOf("foobar"), 0x85944171f73967e8ULL);
    EXPECT_EQ(StateDigest{}.value(), 0xcbf29ce484222325ULL);

    // Typed fields hash as their little-endian bytes: 11 | 55443322 |
    // ddccbbaa99887766.
    StateDigest d;
    d.u8(0x11);
    d.u32(0x22334455);
    d.u64(0x66778899aabbccddULL);
    EXPECT_EQ(d.value(), 0xe77f3a6566552a18ULL);
}

TEST(StateDigestTest, FieldByFieldEqualsConcatenatedBytes)
{
    const double real = -1234.56789;
    const std::vector<int> uids = {10000, -1, 1000};

    StateDigest d;
    d.u8(0xab);
    d.u32(0xdeadbeef);
    d.u64(0x0123456789abcdefULL);
    d.i64(-42);
    d.f64(real);
    d.time(Time::fromMillis(1500));
    d.str("Pixel XL");
    d.str("");
    d.u32s(uids);

    std::vector<std::uint8_t> bytes;
    putLe(bytes, 0xab, 1);
    putLe(bytes, 0xdeadbeef, 4);
    putLe(bytes, 0x0123456789abcdefULL, 8);
    putLe(bytes, static_cast<std::uint64_t>(std::int64_t{-42}), 8);
    std::uint64_t bits;
    std::memcpy(&bits, &real, sizeof bits);
    putLe(bytes, bits, 8);
    putLe(bytes, 1'500'000'000, 8);
    putLe(bytes, 8, 4);
    for (char c : std::string_view("Pixel XL"))
        bytes.push_back(static_cast<std::uint8_t>(c));
    putLe(bytes, 0, 4);
    putLe(bytes, uids.size(), 8);
    for (int uid : uids) putLe(bytes, static_cast<std::uint32_t>(uid), 4);

    EXPECT_EQ(d.value(), fnvOf(bytes.data(), bytes.size()));

    // Any one field off by one bit changes the digest.
    StateDigest other;
    other.bytes(bytes.data(), bytes.size() - 1);
    other.u8(bytes.back() ^ 0x01);
    EXPECT_NE(other.value(), d.value());
}

} // namespace
} // namespace leaseos::sim
