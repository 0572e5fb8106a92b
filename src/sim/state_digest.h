#ifndef LEASEOS_SIM_STATE_DIGEST_H
#define LEASEOS_SIM_STATE_DIGEST_H

/**
 * @file
 * Streamed device state digests (DESIGN.md §11).
 *
 * Each stateful component hashes its explicit state into a StateDigest
 * through typed calls, and Device::stateDigest() runs them in a fixed
 * order. A value enters as fixed-width little-endian bytes, a double as
 * its IEEE-754 bit pattern and a container as its element count followed
 * by its elements, so equal state gives an equal FNV-1a-64 digest on
 * every host, thread and job count. Nothing is buffered: the digest is
 * the whole output.
 */

#include <bit>
#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "sim/time.h"

namespace leaseos::sim {

/** Incremental FNV-1a 64-bit hash over typed little-endian fields. */
class StateDigest
{
  public:
    void u8(std::uint8_t v) { h_ = (h_ ^ v) * kPrime; }
    void u32(std::uint32_t v) { le(v); }
    void u64(std::uint64_t v) { le(v); }
    void i64(std::int64_t v) { le(static_cast<std::uint64_t>(v)); }
    /** Doubles enter as their bit pattern, never as rounded text. */
    void f64(double v) { le(std::bit_cast<std::uint64_t>(v)); }
    void time(Time t) { i64(t.nanos()); }

    /** The length as u32, then the bytes. */
    void
    str(std::string_view s)
    {
        u32(static_cast<std::uint32_t>(s.size()));
        bytes(reinterpret_cast<const std::uint8_t *>(s.data()), s.size());
    }

    /** The element count as u64, then each element as u32 (uid lists). */
    template <typename Int>
    void
    u32s(const std::vector<Int> &v)
    {
        u64(v.size());
        for (Int x : v) u32(static_cast<std::uint32_t>(x));
    }

    void
    bytes(const std::uint8_t *data, std::size_t size)
    {
        for (std::size_t i = 0; i < size; ++i) u8(data[i]);
    }

    std::uint64_t value() const { return h_; }

  private:
    static constexpr std::uint64_t kOffsetBasis = 0xcbf29ce484222325ULL;
    static constexpr std::uint64_t kPrime = 0x100000001b3ULL;

    template <typename T>
    void
    le(T v)
    {
        for (std::size_t i = 0; i < sizeof(T); ++i)
            u8(static_cast<std::uint8_t>(v >> (8 * i)));
    }

    std::uint64_t h_ = kOffsetBasis;
};

} // namespace leaseos::sim

#endif // LEASEOS_SIM_STATE_DIGEST_H
