#include "sim/checkpoint.h"

#include <cstdio>

namespace leaseos::sim {

namespace {

constexpr char kMagic[8] = {'L', 'O', 'S', 'C', 'K', 'P', 'T', '1'};
constexpr std::size_t kHeaderSize = 8 + 4 + 4 + 8 + 8;

std::uint64_t
readLe64(const std::uint8_t *p)
{
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
    return v;
}

std::uint32_t
readLe32(const std::uint8_t *p)
{
    std::uint32_t v = 0;
    for (std::size_t i = 0; i < 4; ++i)
        v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
    return v;
}

} // namespace

std::uint64_t
checkpointDigest(const std::uint8_t *data, std::size_t size)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (std::size_t i = 0; i < size; ++i) {
        h ^= data[i];
        h *= 0x100000001b3ULL;
    }
    return h;
}

// ---- CheckpointWriter ----------------------------------------------------

void
CheckpointWriter::beginSection(std::string_view name, std::uint32_t version)
{
    if (inSection_)
        throw CheckpointError("beginSection('" + std::string(name) +
                              "') inside an open section");
    inSection_ = true;
    u32(static_cast<std::uint32_t>(name.size()));
    buf_.insert(buf_.end(), name.begin(), name.end());
    u32(version);
    sectionBodyAt_ = buf_.size();
    u64(0); // body length, patched by endSection()
}

void
CheckpointWriter::endSection()
{
    if (!inSection_) throw CheckpointError("endSection() with none open");
    inSection_ = false;
    std::uint64_t bodyLen = buf_.size() - sectionBodyAt_ - 8;
    for (std::size_t i = 0; i < 8; ++i)
        buf_[sectionBodyAt_ + i] =
            static_cast<std::uint8_t>(bodyLen >> (8 * i));
}

void
CheckpointWriter::str(std::string_view s)
{
    u32(static_cast<std::uint32_t>(s.size()));
    buf_.insert(buf_.end(), s.begin(), s.end());
}

std::vector<std::uint8_t>
CheckpointWriter::finish()
{
    if (inSection_) throw CheckpointError("finish() with a section open");
    std::vector<std::uint8_t> out;
    out.reserve(kHeaderSize + buf_.size());
    out.insert(out.end(), kMagic, kMagic + 8);
    auto le = [&out](std::uint64_t v, std::size_t n) {
        for (std::size_t i = 0; i < n; ++i)
            out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    };
    le(kCheckpointFormatVersion, 4);
    le(0, 4); // reserved
    le(buf_.size(), 8);
    le(checkpointDigest(buf_.data(), buf_.size()), 8);
    out.insert(out.end(), buf_.begin(), buf_.end());
    buf_.clear();
    return out;
}

// ---- CheckpointReader ----------------------------------------------------

CheckpointReader::CheckpointReader(const std::uint8_t *data,
                                   std::size_t size)
    : data_(data)
{
    if (size < kHeaderSize)
        throw CheckpointError("checkpoint truncated: " +
                              std::to_string(size) + " bytes");
    if (std::memcmp(data, kMagic, 8) != 0)
        throw CheckpointError("not a checkpoint (bad magic)");
    std::uint32_t format = readLe32(data + 8);
    if (format != kCheckpointFormatVersion)
        throw CheckpointError(
            "unsupported checkpoint format version " +
            std::to_string(format) + " (this build reads " +
            std::to_string(kCheckpointFormatVersion) + ")");
    std::uint64_t payloadSize = readLe64(data + 16);
    if (kHeaderSize + payloadSize != size)
        throw CheckpointError(
            "checkpoint payload size mismatch: header says " +
            std::to_string(payloadSize) + ", file has " +
            std::to_string(size - kHeaderSize));
    std::uint64_t digest = readLe64(data + 24);
    std::uint64_t actual = checkpointDigest(data + kHeaderSize, payloadSize);
    if (digest != actual)
        throw CheckpointError("checkpoint digest mismatch (corrupt blob)");
    pos_ = kHeaderSize;
    end_ = kHeaderSize + payloadSize;
}

const std::uint8_t *
CheckpointReader::take(std::size_t n)
{
    std::size_t limit = inSection_ ? sectionEnd_ : end_;
    if (n > limit - pos_)
        throw CheckpointError("checkpoint read past " +
                              std::string(inSection_ ? "section" : "payload") +
                              " end");
    const std::uint8_t *p = data_ + pos_;
    pos_ += n;
    return p;
}

std::uint32_t
CheckpointReader::beginSection(std::string_view name)
{
    std::uint32_t version = 0;
    std::string actual = nextSection(version);
    if (actual != name)
        throw CheckpointError("expected section '" + std::string(name) +
                              "', found '" + actual + "'");
    return version;
}

std::string
CheckpointReader::nextSection(std::uint32_t &versionOut)
{
    if (inSection_) throw CheckpointError("section already open");
    if (pos_ == end_) throw CheckpointError("no section left in payload");
    std::uint32_t nameLen = u32();
    std::string name(reinterpret_cast<const char *>(take(nameLen)), nameLen);
    versionOut = u32();
    std::uint64_t bodyLen = u64();
    // Compared against the bytes left, not as pos_ + bodyLen: a length
    // near 2^64 would wrap that sum and put the section end behind pos_.
    if (bodyLen > end_ - pos_)
        throw CheckpointError("section '" + name + "' body truncated");
    sectionEnd_ = pos_ + bodyLen;
    inSection_ = true;
    return name;
}

std::string
CheckpointReader::peekSection() const
{
    if (inSection_ || pos_ == end_) return "";
    CheckpointReader probe = *this;
    std::uint32_t version = 0;
    return probe.nextSection(version);
}

void
CheckpointReader::endSection()
{
    if (!inSection_) throw CheckpointError("endSection() with none open");
    if (pos_ != sectionEnd_)
        throw CheckpointError(
            "section body not fully consumed (" +
            std::to_string(sectionEnd_ - pos_) + " bytes left)");
    inSection_ = false;
}

void
CheckpointReader::skipSection()
{
    if (!inSection_) throw CheckpointError("skipSection() with none open");
    pos_ = sectionEnd_;
    inSection_ = false;
}

std::uint8_t
CheckpointReader::u8()
{
    return *take(1);
}

std::uint32_t
CheckpointReader::u32()
{
    return readLe32(take(4));
}

std::uint64_t
CheckpointReader::u64()
{
    return readLe64(take(8));
}

double
CheckpointReader::f64()
{
    std::uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, sizeof v);
    return v;
}

std::string
CheckpointReader::str()
{
    std::uint32_t n = u32();
    return std::string(reinterpret_cast<const char *>(take(n)), n);
}

// ---- File helpers --------------------------------------------------------

bool
writeCheckpointFile(const std::string &path,
                    const std::vector<std::uint8_t> &blob)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (f == nullptr) return false;
    std::size_t written = std::fwrite(blob.data(), 1, blob.size(), f);
    bool ok = std::fclose(f) == 0 && written == blob.size();
    return ok;
}

std::vector<std::uint8_t>
readCheckpointFile(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (f == nullptr)
        throw CheckpointError("cannot open checkpoint file " + path);
    std::vector<std::uint8_t> blob;
    std::uint8_t chunk[4096];
    std::size_t n;
    while ((n = std::fread(chunk, 1, sizeof chunk, f)) > 0)
        blob.insert(blob.end(), chunk, chunk + n);
    std::fclose(f);
    return blob;
}

} // namespace leaseos::sim
