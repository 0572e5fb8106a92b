#ifndef LEASEOS_SIM_CHECKPOINT_H
#define LEASEOS_SIM_CHECKPOINT_H

/**
 * @file
 * Deterministic device state digests (DESIGN.md §11).
 *
 * A checkpoint serializes the explicit state of a running simulation to a
 * byte blob at a sim-time boundary: fixed little-endian encoding, named
 * versioned sections (one per component), and an FNV-1a digest over the
 * payload, so two runs that reach the same state produce byte-identical
 * blobs regardless of host, thread, or job count. Checkpoints are
 * save-only; the blobs back two things:
 *
 *  - per-interval state digests (equal state ⇒ equal blob bytes), which
 *    must agree across job counts and tell which interval of two runs
 *    diverged first;
 *  - offline triage: tools/tracereplay decodes a blob and re-drives a
 *    trace's validation from it without replaying the whole prefix.
 *
 * Wire format (all integers little-endian):
 *
 *     header:  "LOSCKPT1" | u32 format | u32 reserved(0)
 *              | u64 payloadSize | u64 fnv1a64(payload)
 *     payload: section*
 *     section: u32 nameLen | name bytes | u32 version | u64 bodyLen | body
 *
 * Readers fail with CheckpointError (an exception, never abort) on bad
 * magic, unknown format, digest mismatch, truncation, an out-of-range
 * section length, or out-of-order sections.
 */

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "sim/time.h"

namespace leaseos::sim {

/** Any malformed-, truncated-, or mismatched-blob condition. */
class CheckpointError : public std::runtime_error
{
  public:
    explicit CheckpointError(const std::string &what)
        : std::runtime_error(what) {}
};

/** Current top-level wire-format version. */
constexpr std::uint32_t kCheckpointFormatVersion = 1;

/** FNV-1a 64-bit over a byte range (the payload digest). */
std::uint64_t checkpointDigest(const std::uint8_t *data, std::size_t size);

/**
 * Appends typed values into a sectioned checkpoint payload.
 *
 * Usage: beginSection()/endSection() around each component's fields,
 * then finish() to get the framed blob. Sections cannot nest.
 */
class CheckpointWriter
{
  public:
    CheckpointWriter() = default;

    /** Open a named component section. */
    void beginSection(std::string_view name, std::uint32_t version);
    /** Close the open section (patches its body length). */
    void endSection();

    void
    u8(std::uint8_t v)
    {
        buf_.push_back(v);
    }
    void
    u32(std::uint32_t v)
    {
        appendLe(v);
    }
    void
    u64(std::uint64_t v)
    {
        appendLe(v);
    }
    void
    i64(std::int64_t v)
    {
        appendLe(static_cast<std::uint64_t>(v));
    }
    /** Doubles travel as their IEEE-754 bit pattern — no text rounding. */
    void
    f64(double v)
    {
        std::uint64_t bits;
        std::memcpy(&bits, &v, sizeof bits);
        appendLe(bits);
    }
    void
    time(Time t)
    {
        i64(t.nanos());
    }
    void str(std::string_view s);

    /** Frame header + payload + digest. The writer is spent afterwards. */
    std::vector<std::uint8_t> finish();

  private:
    template <typename T>
    void
    appendLe(T v)
    {
        for (std::size_t i = 0; i < sizeof(T); ++i)
            buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }

    std::vector<std::uint8_t> buf_;
    std::size_t sectionBodyAt_ = 0; ///< patch offset of open section
    bool inSection_ = false;
};

/**
 * Validates and decodes a checkpoint blob.
 *
 * Construction verifies the frame (magic, format, size, digest).
 * Readers consume an expected section with beginSection(name) — which
 * enforces that the next section is the named one and returns its
 * version — and endSection(), which enforces the body was read exactly.
 * Tools can instead walk sections generically with nextSection() /
 * skipSection().
 */
class CheckpointReader
{
  public:
    CheckpointReader(const std::uint8_t *data, std::size_t size);
    explicit CheckpointReader(const std::vector<std::uint8_t> &blob)
        : CheckpointReader(blob.data(), blob.size()) {}

    /**
     * Open the next section, requiring its name to be @p name.
     * @return the section's version (callers gate on what they support).
     */
    std::uint32_t beginSection(std::string_view name);

    /** Close the open section; throws if its body was not fully read. */
    void endSection();

    /**
     * Peek the next section's name without opening it; empty string at
     * end of payload.
     */
    std::string peekSection() const;

    /** Open whatever section comes next. @return its name. */
    std::string nextSection(std::uint32_t &versionOut);

    /** Skip the remainder of the open section's body. */
    void skipSection();

    std::uint8_t u8();
    std::uint32_t u32();
    std::uint64_t u64();
    std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
    double f64();
    Time time() { return Time::fromNanos(i64()); }
    std::string str();

    /** True once every payload byte has been consumed. */
    bool atEnd() const { return pos_ == end_; }

    /**
     * Unread bytes left in the open section's body — the full body length
     * when called right after nextSection()/beginSection(). Zero when no
     * section is open.
     */
    std::size_t
    sectionRemaining() const
    {
        return inSection_ ? sectionEnd_ - pos_ : 0;
    }

  private:
    const std::uint8_t *take(std::size_t n);

    const std::uint8_t *data_ = nullptr;
    std::size_t pos_ = 0;   ///< cursor into payload
    std::size_t end_ = 0;   ///< payload end offset
    std::size_t sectionEnd_ = 0;
    bool inSection_ = false;
};

/** Write @p blob to @p path (binary). @retval false on I/O failure. */
bool writeCheckpointFile(const std::string &path,
                         const std::vector<std::uint8_t> &blob);

/**
 * Read a checkpoint blob from @p path. Throws CheckpointError when the
 * file cannot be read (frame validation happens in CheckpointReader).
 */
std::vector<std::uint8_t> readCheckpointFile(const std::string &path);

} // namespace leaseos::sim

#endif // LEASEOS_SIM_CHECKPOINT_H
