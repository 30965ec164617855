/**
 * @file
 * A fully-associative, LRU TLB array (lookup structure only).
 *
 * The traversal unit's marker and tracer each own a 32-entry TLB and
 * share a 128-entry L2 TLB and a blocking page-table walker (paper
 * §VI-A: "the TLB and page table walker are blocking, TLB misses can
 * serialize execution"). Timing — stalling on walks — is applied by
 * the owning component; this class only resolves hits/misses.
 */

#ifndef HWGC_MEM_TLB_H
#define HWGC_MEM_TLB_H

#include <optional>
#include <vector>

#include "sim/checkpoint.h"
#include "sim/stats.h"
#include "sim/types.h"

namespace hwgc::mem
{

/** Fully-associative translation lookaside buffer. */
class TlbArray
{
  public:
    /**
     * @param parent The owner's statistics group; the hit/miss
     *        counters are its child group @p name ("tlb").
     * @param entries Capacity (32 for unit TLBs, 128 for shared L2).
     */
    TlbArray(stats::Group &parent, std::string name, unsigned entries)
        : stats_(parent, std::move(name)), entries_(entries)
    {
        panic_if(entries_ == 0, "TLB needs at least one entry");
    }

    /** Looks up @p va; returns the translated PA on a hit. Entries
     *  may cover 4 KiB pages or 2 MiB superpages (paper §VII). */
    std::optional<Addr>
    lookup(Addr va)
    {
        for (std::size_t i = 0; i < slots_.size(); ++i) {
            Entry &e = slots_[i];
            const Addr mask = (Addr(1) << e.pageBits) - 1;
            if ((va & ~mask) == e.vpage) {
                e.lastUse = ++useCounter_;
                ++hits_;
                lastHit_ = unsigned(i);
                return e.ppage + (va & mask);
            }
        }
        ++misses_;
        return std::nullopt;
    }

    /** The slot the most recent lookup() hit, for replayHits(). */
    unsigned lastHitSlot() const { return lastHit_; }

    /**
     * Replays, in closed form, @p repeats back-to-back repetitions of
     * @p n lookups that hit @p slots[0..n) in that order: hits and the
     * LRU use counter advance by n * @p repeats, and every slot keeps
     * the stamp of its last lookup in the last repetition. Valid only
     * while no insert() or flush() has moved a slot since the lookups
     * being replayed.
     */
    void
    replayHits(const unsigned *slots, unsigned n, std::uint64_t repeats)
    {
        if (n == 0 || repeats == 0) {
            return;
        }
        const std::uint64_t last_round = useCounter_ + (repeats - 1) * n;
        for (unsigned i = 0; i < n; ++i) {
            slots_[slots[i]].lastUse = last_round + i + 1;
        }
        useCounter_ += std::uint64_t(n) * repeats;
        hits_ += std::uint64_t(n) * repeats;
    }

    /** Installs a translation, evicting LRU if full. */
    void
    insert(Addr va, Addr pa, unsigned page_bits = 12)
    {
        const Addr mask = (Addr(1) << page_bits) - 1;
        const Addr vpage = va & ~mask;
        const Addr ppage = pa & ~mask;
        for (auto &e : slots_) {
            if (e.vpage == vpage && e.pageBits == page_bits) {
                e.ppage = ppage;
                e.lastUse = ++useCounter_;
                return;
            }
        }
        if (slots_.size() < entries_) {
            slots_.push_back({vpage, ppage, page_bits, ++useCounter_});
            return;
        }
        Entry *lru = &slots_.front();
        for (auto &e : slots_) {
            if (e.lastUse < lru->lastUse) {
                lru = &e;
            }
        }
        *lru = {vpage, ppage, page_bits, ++useCounter_};
    }

    /** Like lookup(), but also reports the matching entry's page
     *  size (needed to propagate superpage reach between TLB levels). */
    std::optional<std::pair<Addr, unsigned>>
    lookupEntry(Addr va)
    {
        for (auto &e : slots_) {
            const Addr mask = (Addr(1) << e.pageBits) - 1;
            if ((va & ~mask) == e.vpage) {
                e.lastUse = ++useCounter_;
                ++hits_;
                return std::make_pair(e.ppage + (va & mask),
                                      e.pageBits);
            }
        }
        ++misses_;
        return std::nullopt;
    }

    /** Drops all translations. */
    void flush() { slots_.clear(); }

    std::uint64_t hits() const { return hits_.value(); }
    std::uint64_t misses() const { return misses_.value(); }

    /** Archives the translation array and the hit/miss counters. */
    void
    serialize(checkpoint::Archive &ar)
    {
        ar(useCounter_);
        const std::uint64_t count = ar.count(slots_.size());
        if (ar.loading()) {
            fatal_if(count > entries_,
                     "checkpoint '%s': TLB '%s' holds %llu entries but "
                     "has capacity %u — configurations differ",
                     ar.origin().c_str(), stats_.name().c_str(),
                     (unsigned long long)count, entries_);
            slots_.assign(std::size_t(count), Entry{});
        }
        for (Entry &e : slots_) {
            ar(e.vpage, e.ppage, e.pageBits, e.lastUse);
        }
        ar(stats_);
    }

  private:
    struct Entry
    {
        Addr vpage = 0;
        Addr ppage = 0;
        unsigned pageBits = 12;
        std::uint64_t lastUse = 0;
    };

    /** First, so the lookup state and its counters stay adjacent. */
    stats::Group stats_;
    unsigned entries_;
    std::vector<Entry> slots_;
    std::uint64_t useCounter_ = 0;
    unsigned lastHit_ = 0; //!< Host-side memo of lookup(), not saved.
    stats::Scalar hits_{stats_, "hits"};
    stats::Scalar misses_{stats_, "misses"};
};

} // namespace hwgc::mem

#endif // HWGC_MEM_TLB_H
