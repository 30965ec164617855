/**
 * @file
 * Deterministic checkpoint/restore of simulator state (DESIGN.md §9).
 *
 * A checkpoint is a single file holding the complete architectural
 * state of a simulation at an inter-cycle boundary: every Clocked
 * component's registers, queues and statistics, the kernel's clock and
 * scheduled wakeups, and the functional memory image. The format is
 * self-describing and versioned so that a stale, truncated or
 * mismatched file fails loudly instead of silently mis-restoring:
 *
 *   file   := magic[8] version:u32 chunk*
 *   chunk  := nameLen:u32 name[nameLen] payloadLen:u64 payload
 *
 * All integers are little-endian and fixed-width; doubles are
 * bit-cast to u64. Components write one chunk each (named by their
 * instance name); the reader asserts every chunk name and every chunk
 * length, so any drift between the saving and restoring topology — a
 * different config, an added field, a reordered component — is a
 * fatal() with a precise message, never a corrupted resume.
 *
 * Determinism argument: serialization only happens between cycles
 * (never mid-tick), where the kernel's transient state (the event
 * kernel's due mask) is provably empty, and the wakeup caches need no
 * serialization at all because nextWakeup() is a pure function of
 * component state and the kernel re-polls every component when a run
 * (re)starts. A restored run is therefore bit-identical — cycle counts
 * and statistics — to the uninterrupted one, under either kernel.
 */

#ifndef HWGC_SIM_CHECKPOINT_H
#define HWGC_SIM_CHECKPOINT_H

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include <unistd.h>

#include "sim/logging.h"
#include "sim/random.h"
#include "sim/stats.h"

namespace hwgc::checkpoint
{

/** Format magic and version; bump the version on any layout change. */
inline constexpr char magic[8] = {'H', 'W', 'G', 'C',
                                  'C', 'K', 'P', 'T'};
inline constexpr std::uint32_t formatVersion = 4;

/** Serializes state into the chunked checkpoint image. */
class Serializer
{
  public:
    Serializer()
    {
        buf_.append(magic, sizeof(magic));
        rawU32(formatVersion);
    }

    /** Opens a named chunk; every put must happen inside one. */
    void
    beginChunk(const std::string &name)
    {
        panic_if(chunkStart_ != npos, "checkpoint: nested chunk '%s'",
                 name.c_str());
        rawU32(std::uint32_t(name.size()));
        buf_.append(name);
        chunkStart_ = buf_.size();
        rawU64(0); // Placeholder, patched by endChunk().
    }

    /** Closes the current chunk, patching its payload length. */
    void
    endChunk()
    {
        panic_if(chunkStart_ == npos,
                 "checkpoint: endChunk() outside a chunk");
        const std::uint64_t len = buf_.size() - chunkStart_ - 8;
        for (unsigned i = 0; i < 8; ++i) {
            buf_[chunkStart_ + i] = char((len >> (8 * i)) & 0xff);
        }
        chunkStart_ = npos;
    }

    void
    putU64(std::uint64_t v)
    {
        panic_if(chunkStart_ == npos,
                 "checkpoint: put outside a chunk");
        rawU64(v);
    }

    void putI64(std::int64_t v) { putU64(std::uint64_t(v)); }
    void putBool(bool v) { putU64(v ? 1 : 0); }

    void
    putDouble(double v)
    {
        std::uint64_t bits;
        std::memcpy(&bits, &v, sizeof(bits));
        putU64(bits);
    }

    void
    putString(const std::string &s)
    {
        putU64(s.size());
        buf_.append(s);
    }

    void
    putBytes(const void *data, std::size_t len)
    {
        putU64(len);
        buf_.append(static_cast<const char *>(data), len);
    }

    /** The complete file image (header + all closed chunks). */
    const std::string &
    image() const
    {
        panic_if(chunkStart_ != npos,
                 "checkpoint: image() with an open chunk");
        return buf_;
    }

    /**
     * Writes the image to @p path. Returns false (with a warning)
     * on I/O failure — the crash-dump path must not fatal() again
     * while already handling a fatal error.
     */
    bool
    writeFile(const std::string &path) const
    {
        std::FILE *f = std::fopen(path.c_str(), "wb");
        if (f == nullptr) {
            warn("checkpoint: cannot open '%s' for writing",
                 path.c_str());
            return false;
        }
        const std::string &data = image();
        const std::size_t written =
            std::fwrite(data.data(), 1, data.size(), f);
        std::fclose(f);
        if (written != data.size()) {
            warn("checkpoint: short write to '%s'", path.c_str());
            return false;
        }
        return true;
    }

  private:
    static constexpr std::size_t npos = std::size_t(-1);

    void
    rawU32(std::uint32_t v)
    {
        for (unsigned i = 0; i < 4; ++i) {
            buf_.push_back(char((v >> (8 * i)) & 0xff));
        }
    }

    void
    rawU64(std::uint64_t v)
    {
        for (unsigned i = 0; i < 8; ++i) {
            buf_.push_back(char((v >> (8 * i)) & 0xff));
        }
    }

    std::string buf_;
    std::size_t chunkStart_ = npos;
};

/**
 * Reads a checkpoint image back. Every accessor validates bounds and
 * every structural mismatch (magic, version, chunk name, chunk
 * length) is a fatal() naming the offending file — a corrupt
 * checkpoint is rejected, never silently mis-restored.
 */
class Deserializer
{
  public:
    /** Parses @p data as a checkpoint image (header validated). */
    explicit Deserializer(std::string data, std::string origin = "<memory>")
        : buf_(std::move(data)), origin_(std::move(origin))
    {
        fatal_if(buf_.size() < sizeof(magic) + 4,
                 "checkpoint '%s': truncated header (%zu bytes)",
                 origin_.c_str(), buf_.size());
        fatal_if(std::memcmp(buf_.data(), magic, sizeof(magic)) != 0,
                 "checkpoint '%s': bad magic — not a checkpoint file",
                 origin_.c_str());
        pos_ = sizeof(magic);
        const std::uint32_t version = rawU32();
        fatal_if(version != formatVersion,
                 "checkpoint '%s': format version %u, expected %u",
                 origin_.c_str(), version, formatVersion);
    }

    /** Loads and parses @p path; fatal() if unreadable. */
    static Deserializer
    fromFile(const std::string &path)
    {
        return Deserializer(readFileOrDie(path), path);
    }

    /**
     * Opens the next chunk, asserting it is named @p expect. The
     * topology that wrote the file and the one restoring it must
     * agree on component names and order — a mismatch means a
     * different configuration and is fatal.
     */
    void
    beginChunk(const std::string &expect)
    {
        fatal_if(chunkEnd_ != npos,
                 "checkpoint '%s': beginChunk('%s') inside chunk",
                 origin_.c_str(), expect.c_str());
        fatal_if(atEnd(), "checkpoint '%s': expected chunk '%s' but "
                 "the file ends — truncated or mismatched topology",
                 origin_.c_str(), expect.c_str());
        const std::string name = chunkName();
        fatal_if(name != expect,
                 "checkpoint '%s': expected chunk '%s', found '%s' — "
                 "the saving and restoring configurations differ",
                 origin_.c_str(), expect.c_str(), name.c_str());
        const std::uint64_t len = rawU64();
        fatal_if(len > buf_.size() - pos_,
                 "checkpoint '%s': chunk '%s' claims %llu bytes but "
                 "only %zu remain — truncated file",
                 origin_.c_str(), name.c_str(),
                 (unsigned long long)len, buf_.size() - pos_);
        chunkEnd_ = pos_ + len;
    }

    /** Closes the current chunk; trailing unread bytes are fatal. */
    void
    endChunk()
    {
        fatal_if(chunkEnd_ == npos,
                 "checkpoint '%s': endChunk() outside a chunk",
                 origin_.c_str());
        fatal_if(pos_ != chunkEnd_,
                 "checkpoint '%s': %llu unread bytes at chunk end — "
                 "serialization layout mismatch", origin_.c_str(),
                 (unsigned long long)(chunkEnd_ - pos_));
        chunkEnd_ = npos;
    }

    std::uint64_t
    getU64()
    {
        fatal_if(chunkEnd_ == npos,
                 "checkpoint '%s': get outside a chunk",
                 origin_.c_str());
        fatal_if(pos_ + 8 > chunkEnd_,
                 "checkpoint '%s': read past chunk end",
                 origin_.c_str());
        return rawU64();
    }

    std::int64_t getI64() { return std::int64_t(getU64()); }
    bool getBool() { return getU64() != 0; }

    double
    getDouble()
    {
        const std::uint64_t bits = getU64();
        double v;
        std::memcpy(&v, &bits, sizeof(v));
        return v;
    }

    std::string
    getString()
    {
        const std::uint64_t len = getU64();
        fatal_if(pos_ + len > chunkEnd_,
                 "checkpoint '%s': string runs past chunk end",
                 origin_.c_str());
        std::string s = buf_.substr(pos_, len);
        pos_ += len;
        return s;
    }

    /** Reads a byte blob; its recorded length must equal @p len. */
    void
    getBytes(void *dst, std::size_t len)
    {
        const std::uint64_t stored = getU64();
        fatal_if(stored != len,
                 "checkpoint '%s': byte blob of %llu bytes where %zu "
                 "were expected", origin_.c_str(),
                 (unsigned long long)stored, len);
        fatal_if(pos_ + len > chunkEnd_,
                 "checkpoint '%s': blob runs past chunk end",
                 origin_.c_str());
        std::memcpy(dst, buf_.data() + pos_, len);
        pos_ += len;
    }

    bool atEnd() const { return pos_ >= buf_.size(); }

    /**
     * Name of the next chunk without consuming it, or "" at end of
     * file. Lets readers of multi-consumer images (the farm snapshot)
     * branch on what was saved instead of hard-coding one topology.
     */
    std::string
    peekChunkName()
    {
        fatal_if(chunkEnd_ != npos,
                 "checkpoint '%s': peekChunkName() inside a chunk",
                 origin_.c_str());
        if (atEnd()) {
            return "";
        }
        const std::size_t saved = pos_;
        std::string name = chunkName();
        pos_ = saved;
        return name;
    }

    /** Skips the next chunk wholesale (bounds still validated). */
    void
    skipChunk()
    {
        fatal_if(chunkEnd_ != npos,
                 "checkpoint '%s': skipChunk() inside a chunk",
                 origin_.c_str());
        fatal_if(atEnd(), "checkpoint '%s': skipChunk() at end of file",
                 origin_.c_str());
        const std::string name = chunkName();
        const std::uint64_t len = rawU64();
        fatal_if(len > buf_.size() - pos_,
                 "checkpoint '%s': chunk '%s' truncated",
                 origin_.c_str(), name.c_str());
        pos_ += len;
    }

    const std::string &origin() const { return origin_; }

    /** Directory entry for post-mortem inspection (heap_inspector). */
    struct ChunkInfo
    {
        std::string name;
        std::uint64_t size = 0;
    };

    /** Lists every chunk in @p path without restoring anything. */
    static std::vector<ChunkInfo>
    listChunks(const std::string &path)
    {
        Deserializer des = fromFile(path);
        std::vector<ChunkInfo> chunks;
        while (!des.atEnd()) {
            ChunkInfo info;
            info.name = des.chunkName();
            info.size = des.rawU64();
            fatal_if(info.size > des.buf_.size() - des.pos_,
                     "checkpoint '%s': chunk '%s' truncated",
                     path.c_str(), info.name.c_str());
            des.pos_ += info.size;
            chunks.push_back(std::move(info));
        }
        return chunks;
    }

  private:
    static constexpr std::size_t npos = std::size_t(-1);

    static std::string
    readFileOrDie(const std::string &path)
    {
        std::FILE *f = std::fopen(path.c_str(), "rb");
        fatal_if(f == nullptr, "checkpoint: cannot open '%s'",
                 path.c_str());
        std::string data;
        char block[65536];
        std::size_t n;
        while ((n = std::fread(block, 1, sizeof(block), f)) > 0) {
            data.append(block, n);
        }
        std::fclose(f);
        return data;
    }

    std::uint32_t
    rawU32()
    {
        fatal_if(pos_ + 4 > buf_.size(),
                 "checkpoint '%s': truncated file", origin_.c_str());
        std::uint32_t v = 0;
        for (unsigned i = 0; i < 4; ++i) {
            v |= std::uint32_t(std::uint8_t(buf_[pos_ + i])) << (8 * i);
        }
        pos_ += 4;
        return v;
    }

    std::uint64_t
    rawU64()
    {
        fatal_if(pos_ + 8 > buf_.size(),
                 "checkpoint '%s': truncated file", origin_.c_str());
        std::uint64_t v = 0;
        for (unsigned i = 0; i < 8; ++i) {
            v |= std::uint64_t(std::uint8_t(buf_[pos_ + i])) << (8 * i);
        }
        pos_ += 8;
        return v;
    }

    std::string
    chunkName()
    {
        const std::uint32_t len = rawU32();
        fatal_if(pos_ + len > buf_.size(),
                 "checkpoint '%s': chunk name runs past end of file",
                 origin_.c_str());
        std::string name = buf_.substr(pos_, len);
        pos_ += len;
        return name;
    }

    std::string buf_;
    std::string origin_;
    std::size_t pos_ = 0;
    std::size_t chunkEnd_ = npos;
};

/** @name Statistics serialization helpers @{ */

inline void
putStat(Serializer &ser, const stats::Scalar &s)
{
    ser.putU64(s.value());
}

inline void
getStat(Deserializer &des, stats::Scalar &s)
{
    s.set(des.getU64());
}

inline void
putStat(Serializer &ser, const stats::Vector &v)
{
    ser.putU64(v.size());
    for (std::size_t i = 0; i < v.size(); ++i) {
        ser.putU64(v.value(i));
    }
}

inline void
getStat(Deserializer &des, stats::Vector &v)
{
    const std::uint64_t n = des.getU64();
    fatal_if(n != v.size(), "checkpoint '%s': stats::Vector '%s' has "
             "%zu entries, file has %llu", des.origin().c_str(),
             v.name().c_str(), v.size(), (unsigned long long)n);
    for (std::size_t i = 0; i < v.size(); ++i) {
        v.setValue(i, des.getU64());
    }
}

inline void
putStat(Serializer &ser, const stats::Histogram &h)
{
    ser.putU64(h.count());
    ser.putU64(h.sum());
    ser.putU64(h.minValue());
    ser.putU64(h.maxValue());
    ser.putU64(h.buckets().size());
    for (const std::uint64_t b : h.buckets()) {
        ser.putU64(b);
    }
}

inline void
getStat(Deserializer &des, stats::Histogram &h)
{
    const std::uint64_t count = des.getU64();
    const std::uint64_t sum = des.getU64();
    const std::uint64_t min = des.getU64();
    const std::uint64_t max = des.getU64();
    const std::uint64_t n = des.getU64();
    fatal_if(n != h.buckets().size(),
             "checkpoint '%s': stats::Histogram '%s' has %zu buckets, "
             "file has %llu", des.origin().c_str(), h.name().c_str(),
             h.buckets().size(), (unsigned long long)n);
    std::vector<std::uint64_t> buckets(n);
    for (auto &b : buckets) {
        b = des.getU64();
    }
    h.restore(count, sum, min, max, buckets);
}

inline void
putStat(Serializer &ser, const stats::TimeSeries &t)
{
    ser.putU64(t.buckets().size());
    for (const std::uint64_t b : t.buckets()) {
        ser.putU64(b);
    }
}

inline void
getStat(Deserializer &des, stats::TimeSeries &t)
{
    std::vector<std::uint64_t> buckets(des.getU64());
    for (auto &b : buckets) {
        b = des.getU64();
    }
    t.setBuckets(std::move(buckets));
}

/** @} */

/** @name RNG stream serialization @{ */

inline void
putRng(Serializer &ser, const Rng &rng)
{
    for (unsigned i = 0; i < 4; ++i) {
        ser.putU64(rng.stateWord(i));
    }
}

inline void
getRng(Deserializer &des, Rng &rng)
{
    for (unsigned i = 0; i < 4; ++i) {
        rng.setStateWord(i, des.getU64());
    }
}

/** @} */

/**
 * @name Functional-memory image serialization
 *
 * Shared by the device checkpoint and the farm snapshot: pages are
 * written sorted so the file is byte-stable (PhysMem iterates an
 * unordered map). Templated on the memory type to keep sim/ free of a
 * mem/ dependency; any type with size(), snapshot() and
 * restore(Snapshot) works.
 * @{
 */

template <typename PhysMemT>
void
putPhysMem(Serializer &ser, const PhysMemT &mem)
{
    const auto snap = mem.snapshot();
    std::vector<std::uint64_t> page_nums;
    page_nums.reserve(snap.pages.size());
    for (const auto &[num, data] : snap.pages) {
        page_nums.push_back(num);
    }
    std::sort(page_nums.begin(), page_nums.end());
    ser.putU64(mem.size());
    ser.putU64(page_nums.size());
    for (const std::uint64_t num : page_nums) {
        const auto &data = snap.pages.at(num);
        ser.putU64(num);
        ser.putU64(data.size());
        ser.putBytes(data.data(), data.size());
    }
}

template <typename PhysMemT>
void
getPhysMem(Deserializer &des, PhysMemT &mem)
{
    const std::uint64_t mem_size = des.getU64();
    fatal_if(mem_size != mem.size(),
             "checkpoint '%s': physical memory is %llu bytes but this "
             "configuration has %llu — configurations differ",
             des.origin().c_str(), (unsigned long long)mem_size,
             (unsigned long long)mem.size());
    typename PhysMemT::Snapshot snap;
    const std::uint64_t num_pages = des.getU64();
    for (std::uint64_t i = 0; i < num_pages; ++i) {
        const std::uint64_t num = des.getU64();
        const std::uint64_t bytes = des.getU64();
        std::vector<std::uint8_t> data(bytes);
        des.getBytes(data.data(), data.size());
        snap.pages.emplace(num, std::move(data));
    }
    mem.restore(snap);
}

/** @} */

/**
 * Collision-safe crash-artifact base: "<out>.crash.<pid>[.<tag>]".
 * Parallel fuzz/farm workers and --watchdog-secs panics all dump
 * through this path, so artifacts from concurrent processes (and a
 * caller-supplied tag such as the fuzz seed) never clobber each other.
 */
inline std::string
crashArtifactBase(const std::string &out, const std::string &tag = "")
{
    std::string base = out + ".crash." + std::to_string(::getpid());
    if (!tag.empty()) {
        base += "." + tag;
    }
    return base;
}

} // namespace hwgc::checkpoint

#endif // HWGC_SIM_CHECKPOINT_H
