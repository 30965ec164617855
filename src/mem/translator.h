/**
 * @file
 * A unit TLB in front of one blocking walk on the shared PTW.
 *
 * The root reader, the block-table reader and every block sweeper
 * translate the same way (paper §VI-A: "the TLB and page table walker
 * are blocking, TLB misses can serialize execution"): probe a small
 * private TLB, and on a miss request one walk and stop probing until
 * it completes, so the TLB's counters and LRU stamps do not depend on
 * whether the kernel skips the blocked cycles. The owner sleeps while
 * walkPending() holds and declares the PTW, whose tick delivers the
 * result, as a wakeup input.
 */

#ifndef HWGC_MEM_TRANSLATOR_H
#define HWGC_MEM_TRANSLATOR_H

#include <optional>

#include "mem/ptw.h"
#include "mem/tlb.h"

namespace hwgc::mem
{

/** A private TLB plus one outstanding walk on a shared Ptw. */
class Translator : public WalkResponder
{
  public:
    /** Registers a port named after @p owner on @p ptw; the TLB's
     *  counters are the child group "tlb" of the owner's. */
    Translator(Ptw &ptw, Clocked &owner, unsigned tlb_entries)
        : ptw_(ptw), owner_(owner), tlb_(owner.stats(), "tlb", tlb_entries),
          port_(ptw.registerRequester(*this, owner.name()))
    {
    }

    /**
     * The physical address of @p va on a TLB hit; otherwise nullopt,
     * after requesting a walk if none is pending and the port has room.
     */
    std::optional<Addr>
    translate(Addr va, Tick now)
    {
        if (walkPending_) {
            return std::nullopt;
        }
        if (const auto pa = tlb_.lookup(va)) {
            return pa;
        }
        if (ptw_.canRequest(port_)) {
            walkPending_ = true;
            ptw_.requestWalk(port_, va, now);
        }
        return std::nullopt;
    }

    bool walkPending() const { return walkPending_; }

    void
    onWalk(const WalkResult &walk, Tick now) override
    {
        (void)now;
        fatal_if(!walk.valid, "%s touched unmapped VA %#llx",
                 owner_.name().c_str(), (unsigned long long)walk.va);
        tlb_.insert(walk.va, walk.pa, walk.pageBits);
        walkPending_ = false;
    }

    /** Drops every translation (the §VII context switch). */
    void flush() { tlb_.flush(); }
    void serialize(checkpoint::Archive &ar) { ar(walkPending_, tlb_); }

  private:
    Ptw &ptw_;
    const Clocked &owner_;
    TlbArray tlb_;
    unsigned port_;
    bool walkPending_ = false;
};

} // namespace hwgc::mem

#endif // HWGC_MEM_TRANSLATOR_H
