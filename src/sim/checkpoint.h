/**
 * @file
 * Deterministic checkpoint/restore of simulator state (DESIGN.md §9).
 *
 * A checkpoint is a single file holding the complete architectural
 * state of a simulation at an inter-cycle boundary: every Clocked
 * component's registers, queues and statistics, the kernel's clock,
 * and the functional memory image. The format is
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
 * (never mid-tick), where the kernel holds no transient state, and the
 * wakeup caches need no serialization at all because nextWakeup() is a
 * pure function of component state and the kernel re-polls every
 * component when a run (re)starts. A restored run is therefore
 * bit-identical — cycle counts and statistics — to the uninterrupted
 * one, under either kernel.
 */

#ifndef HWGC_SIM_CHECKPOINT_H
#define HWGC_SIM_CHECKPOINT_H

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <deque>
#include <optional>
#include <queue>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <utility>
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
inline constexpr std::uint32_t formatVersion = 8;

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

    const std::string &origin() const { return origin_; }

    /** Directory entry for post-mortem inspection (heap_inspector). */
    struct ChunkInfo
    {
        std::string name;
        std::uint64_t size = 0;
    };

    /** Passes over the next chunk unread (a reader's way past the
     *  chunks it does not decode); returns its directory entry. */
    ChunkInfo
    skipChunk()
    {
        fatal_if(chunkEnd_ != npos,
                 "checkpoint '%s': skipChunk() inside chunk",
                 origin_.c_str());
        ChunkInfo info;
        info.name = chunkName();
        info.size = rawU64();
        fatal_if(info.size > buf_.size() - pos_,
                 "checkpoint '%s': chunk '%s' truncated", origin_.c_str(),
                 info.name.c_str());
        pos_ += info.size;
        return info;
    }

    /** Lists every chunk in @p path without restoring anything. */
    static std::vector<ChunkInfo>
    listChunks(const std::string &path)
    {
        Deserializer des = fromFile(path);
        std::vector<ChunkInfo> chunks;
        while (!des.atEnd()) {
            chunks.push_back(des.skipChunk());
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

/**
 * One direction of the checkpoint stream: an Archive wraps either a
 * Serializer (saving) or a Deserializer (loading), so each
 * checkpointed type writes its state once, in one
 * `serialize(Archive &)` that both directions run:
 *
 *     void serialize(checkpoint::Archive &ar) { ar(head_, tail_, q_); }
 *
 * The encoding is the Serializer's: integers, enums and bools are one
 * u64 word each, doubles are bit-cast, strings and byte blobs are
 * length-prefixed, and containers are an element count followed by
 * their elements (std::array and std::pair carry no count). A
 * statistics group is one item: its statistics in declaration order.
 * Work that belongs to one direction only — a "configurations
 * differ" count check, clearing a host-side memo — sits inside
 * `if (ar.loading())`; sorting an unordered
 * container or draining a priority queue for a byte-stable image
 * happens inside the container helpers below.
 */
class Archive
{
  public:
    explicit Archive(Serializer &ser) : ser_(&ser) {}
    explicit Archive(Deserializer &des) : des_(&des) {}

    /** True when restoring state, false when saving it. */
    bool loading() const { return des_ != nullptr; }

    /** The image's name for messages ("<save>" while saving). */
    const std::string &
    origin() const
    {
        static const std::string saving = "<save>";
        return des_ != nullptr ? des_->origin() : saving;
    }

    /** Opens (saving) or expects (loading) the chunk @p name. */
    void
    beginChunk(const std::string &name)
    {
        if (des_ != nullptr) {
            des_->beginChunk(name);
        } else {
            ser_->beginChunk(name);
        }
    }

    void
    endChunk()
    {
        if (des_ != nullptr) {
            des_->endChunk();
        } else {
            ser_->endChunk();
        }
    }

    /** Archives @p items as the whole of chunk @p name. */
    template <typename... Ts>
    void
    chunk(const std::string &name, Ts &...items)
    {
        beginChunk(name);
        (*this)(items...);
        endChunk();
    }

    /** Archives each of @p items in order. */
    template <typename... Ts>
    Archive &
    operator()(Ts &...items)
    {
        (item(items), ...);
        return *this;
    }

    /**
     * A length or count word: writes @p n when saving; returns the
     * stored value when loading (callers validate it, then size their
     * container from it).
     */
    std::uint64_t
    count(std::uint64_t n)
    {
        word(n);
        return n;
    }

    /** A length-prefixed byte blob of exactly @p len bytes. */
    void
    bytes(void *data, std::size_t len)
    {
        if (des_ != nullptr) {
            des_->getBytes(data, len);
        } else {
            ser_->putBytes(data, len);
        }
    }

  private:
    template <typename T>
    static constexpr bool hasSerialize =
        requires(T &t, Archive &ar) { t.serialize(ar); };

    void
    word(std::uint64_t &w)
    {
        if (des_ != nullptr) {
            w = des_->getU64();
        } else {
            ser_->putU64(w);
        }
    }

    template <typename T>
    void
    item(T &v)
    {
        if constexpr (hasSerialize<T>) {
            v.serialize(*this);
        } else if constexpr (std::is_same_v<T, bool>) {
            std::uint64_t w = v ? 1 : 0;
            word(w);
            v = w != 0;
        } else if constexpr (std::is_enum_v<T>) {
            using U = std::underlying_type_t<T>;
            std::uint64_t w = std::uint64_t(U(v));
            word(w);
            v = T(U(w));
        } else if constexpr (std::is_integral_v<T>) {
            std::uint64_t w = std::uint64_t(v);
            word(w);
            v = T(w);
        } else if constexpr (std::is_same_v<T, double>) {
            std::uint64_t w;
            std::memcpy(&w, &v, sizeof(w));
            word(w);
            std::memcpy(&v, &w, sizeof(v));
        } else {
            container(v);
        }
    }

    void
    container(std::string &s)
    {
        if (des_ != nullptr) {
            s = des_->getString();
        } else {
            ser_->putString(s);
        }
    }

    template <typename A, typename B>
    void
    container(std::pair<A, B> &p)
    {
        (*this)(p.first, p.second);
    }

    template <typename T, std::size_t N>
    void
    container(std::array<T, N> &a)
    {
        for (T &v : a) {
            item(v);
        }
    }

    /**
     * Growable sequences: a count, then the elements. Loading appends
     * one element per read, so a corrupt count fails at the chunk
     * end instead of allocating it up front.
     */
    template <typename Seq>
    void
    sequence(Seq &seq)
    {
        const std::uint64_t n = count(seq.size());
        if (des_ == nullptr) {
            for (auto &v : seq) {
                item(v);
            }
            return;
        }
        seq.clear();
        for (std::uint64_t i = 0; i < n; ++i) {
            item(seq.emplace_back());
        }
    }

    template <typename T>
    void
    container(std::vector<T> &v)
    {
        sequence(v);
    }

    template <typename T>
    void
    container(std::deque<T> &d)
    {
        sequence(d);
    }

    /** A present flag, then the value if present. */
    template <typename T>
    void
    container(std::optional<T> &opt)
    {
        bool present = opt.has_value();
        item(present);
        if (des_ != nullptr) {
            opt.reset();
            if (present) {
                opt.emplace();
            }
        }
        if (present) {
            item(*opt);
        }
    }

    /** Sorted (key, value) pairs, so the image is byte-stable. */
    template <typename K, typename V>
    void
    container(std::unordered_map<K, V> &map)
    {
        std::vector<std::pair<K, V>> pairs(map.begin(), map.end());
        std::sort(pairs.begin(), pairs.end());
        item(pairs);
        if (des_ != nullptr) {
            map.clear();
            map.insert(pairs.begin(), pairs.end());
        }
    }

    /** The queue drained in priority order; loading pushes back. */
    template <typename T, typename C, typename Cmp>
    void
    container(std::priority_queue<T, C, Cmp> &queue)
    {
        std::vector<T> items;
        for (auto copy = queue; !copy.empty(); copy.pop()) {
            items.push_back(copy.top());
        }
        item(items);
        if (des_ != nullptr) {
            queue = {};
            for (T &v : items) {
                queue.push(std::move(v));
            }
        }
    }

    void
    container(Rng &rng)
    {
        for (unsigned i = 0; i < 4; ++i) {
            std::uint64_t w = rng.stateWord(i);
            word(w);
            rng.setStateWord(i, w);
        }
    }

    void
    container(stats::Scalar &s)
    {
        std::uint64_t w = s.value();
        word(w);
        s.set(w);
    }

    void
    container(stats::Vector &v)
    {
        const std::uint64_t n = count(v.size());
        fatal_if(n != v.size(), "checkpoint '%s': stats::Vector '%s' has "
                 "%zu entries, file has %llu", origin().c_str(),
                 v.name().c_str(), v.size(), (unsigned long long)n);
        for (std::size_t i = 0; i < v.size(); ++i) {
            std::uint64_t w = v.value(i);
            word(w);
            v.setValue(i, w);
        }
    }

    void
    container(stats::Histogram &h)
    {
        std::uint64_t samples = h.count();
        std::uint64_t sum = h.sum();
        std::uint64_t min = h.minValue();
        std::uint64_t max = h.maxValue();
        (*this)(samples, sum, min, max);
        const std::uint64_t n = count(h.buckets().size());
        fatal_if(n != h.buckets().size(),
                 "checkpoint '%s': stats::Histogram '%s' has %zu buckets, "
                 "file has %llu", origin().c_str(), h.name().c_str(),
                 h.buckets().size(), (unsigned long long)n);
        std::vector<std::uint64_t> buckets = h.buckets();
        for (std::uint64_t &b : buckets) {
            word(b);
        }
        h.restore(samples, sum, min, max, buckets);
    }

    void
    container(stats::TimeSeries &t)
    {
        std::vector<std::uint64_t> buckets = t.buckets();
        item(buckets);
        t.setBuckets(std::move(buckets));
    }

    void
    container(stats::Group &group)
    {
        group.forEach([this](auto &stat) { container(stat); });
    }

    Serializer *ser_ = nullptr;
    Deserializer *des_ = nullptr;
};

/**
 * Saves one image: runs @p archive over a saving Archive and writes
 * the result to @p path. Returns false (with a warning) on any I/O
 * failure, a full disk at the final flush or close included — the
 * crash-dump path must not fatal() again while already handling a
 * fatal error.
 */
template <typename ArchiveFn>
bool
save(const std::string &path, ArchiveFn &&archive)
{
    Serializer ser;
    Archive ar(ser);
    archive(ar);
    std::string error;
    if (!writeWholeFile(path, ser.image(), error)) {
        warn("checkpoint: cannot write '%s': %s", path.c_str(),
             error.c_str());
        return false;
    }
    return true;
}

/**
 * Loads one image: runs @p archive over the file at @p path. An
 * unreadable or corrupt file is fatal, and so are bytes after the
 * last chunk @p archive reads, for every kind of image.
 */
template <typename ArchiveFn>
void
load(const std::string &path, ArchiveFn &&archive)
{
    Deserializer des = Deserializer::fromFile(path);
    Archive ar(des);
    archive(ar);
    fatal_if(!des.atEnd(),
             "checkpoint '%s': trailing data after the last expected "
             "chunk — the saving and restoring configurations differ",
             path.c_str());
}

/**
 * The functional-memory image, shared by the device checkpoint and
 * the farm snapshot: the memory size (which must match on loading),
 * then every page, sorted by number so the image is byte-stable
 * (PhysMem iterates an unordered map). Templated on the memory type
 * to keep sim/ free of a mem/ dependency; any type with size(),
 * snapshot() and restore(Snapshot) works.
 */
template <typename PhysMemT>
void
physMem(Archive &ar, PhysMemT &mem)
{
    const std::uint64_t mem_size = ar.count(mem.size());
    fatal_if(mem_size != mem.size(),
             "checkpoint '%s': physical memory is %llu bytes but this "
             "configuration has %llu — configurations differ",
             ar.origin().c_str(), (unsigned long long)mem_size,
             (unsigned long long)mem.size());
    typename PhysMemT::Snapshot snap;
    std::vector<std::uint64_t> page_nums;
    if (!ar.loading()) {
        snap = mem.snapshot();
        for (const auto &[num, data] : snap.pages) {
            page_nums.push_back(num);
        }
        std::sort(page_nums.begin(), page_nums.end());
    }
    const std::uint64_t num_pages = ar.count(page_nums.size());
    for (std::uint64_t i = 0; i < num_pages; ++i) {
        std::uint64_t num = ar.loading() ? 0 : page_nums[i];
        ar(num);
        auto &data = snap.pages[num];
        data.resize(std::size_t(ar.count(data.size())));
        ar.bytes(data.data(), data.size());
    }
    if (ar.loading()) {
        mem.restore(snap);
    }
}

/**
 * Collision-safe crash-artifact base: "<out>.crash.<pid>". Parallel
 * fuzz/farm workers and --watchdog-secs panics all dump through this
 * path, so artifacts from concurrent processes never clobber each
 * other.
 */
inline std::string
crashArtifactBase(const std::string &out)
{
    return out + ".crash." + std::to_string(::getpid());
}

} // namespace hwgc::checkpoint

#endif // HWGC_SIM_CHECKPOINT_H
