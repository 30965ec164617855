/**
 * @file
 * The marker pipeline stage (paper Fig 13).
 *
 * "Instead of using a cache with MSHRs, we manage our own requests,
 * as they are identical and unordered": the marker holds a small tag
 * table of in-flight mark operations (16 slots in the baseline). For
 * each reference dequeued from the mark queue it translates through
 * its private TLB (walks serialize through the shared blocking PTW),
 * issues an 8-byte read of the status word, and on the response
 * issues the write-back that sets the mark bit and frees the slot —
 * eliding the write-back if the object was already marked. Newly
 * marked objects with outbound references enter the tracer queue.
 *
 * An optional mark-bit cache of recently marked references filters
 * repeat marks of hot objects before they cost a memory round trip
 * (paper §V-C / Fig 21).
 */

#ifndef HWGC_CORE_MARKER_H
#define HWGC_CORE_MARKER_H

#include <optional>
#include <unordered_map>
#include <vector>

#include "core/hwgc_config.h"
#include "core/mark_queue.h"
#include "core/trace_queue.h"
#include "mem/ptw.h"
#include "mem/tlb.h"

namespace hwgc::core
{

/** Small fully-associative LRU set of recently marked references. */
class MarkBitCache
{
  public:
    explicit MarkBitCache(unsigned entries) : entries_(entries) {}

    bool enabled() const { return entries_ != 0; }

    /** True if @p ref was marked recently (filters the request). */
    bool
    contains(Addr ref)
    {
        for (auto &e : slots_) {
            if (e.first == ref) {
                e.second = ++useCounter_;
                return true;
            }
        }
        return false;
    }

    void
    insert(Addr ref)
    {
        if (!enabled()) {
            return;
        }
        if (slots_.size() < entries_) {
            slots_.emplace_back(ref, ++useCounter_);
            return;
        }
        auto *lru = &slots_.front();
        for (auto &e : slots_) {
            if (e.second < lru->second) {
                lru = &e;
            }
        }
        *lru = {ref, ++useCounter_};
    }

    void clear() { slots_.clear(); }

    void
    serialize(checkpoint::Archive &ar)
    {
        ar(useCounter_);
        const std::uint64_t count = ar.count(slots_.size());
        if (ar.loading()) {
            fatal_if(count > entries_,
                     "checkpoint '%s': mark-bit cache holds %llu entries "
                     "but has capacity %u — configurations differ",
                     ar.origin().c_str(), (unsigned long long)count,
                     entries_);
            slots_.resize(std::size_t(count));
        }
        for (auto &slot : slots_) {
            ar(slot);
        }
    }

  private:
    unsigned entries_;
    std::vector<std::pair<Addr, std::uint64_t>> slots_;
    std::uint64_t useCounter_ = 0;
};

/** The marker. */
class Marker : public Clocked,
               public mem::MemResponder,
               public mem::WalkResponder
{
  public:
    Marker(std::string name, const HwgcConfig &config,
           MarkQueue &mark_queue, TraceQueue &trace_queue,
           mem::MemPort *port, mem::Ptw &ptw);

    /** True when no reference is held, in flight or half-finished. */
    bool idle() const;

    // MemResponder interface.
    void onResponse(const mem::MemResponse &resp, Tick now) override;

    /** WalkResponder interface: the token is the walk waiter's index. */
    void onWalk(const mem::WalkResult &walk, Tick now) override;

    // Clocked interface.
    void tick(Tick now) override;
    bool busy() const override { return !idle(); }
    Tick nextWakeup(Tick now) const override;
    CycleClass cycleClass(Tick now) const override;
    void fastForward(Tick from, Tick to) override;
    void serialize(checkpoint::Archive &ar) override;

    /** In-flight mark reads (for the coupled-tracer ablation). */
    unsigned inFlight() const { return inFlightReads_; }

    /** Drops TLB/cache state between phases. */
    void reset();

    /**
     * Enables per-object access profiling (Fig 21a). Expensive;
     * off by default.
     */
    void setProfileTargets(bool on) { profileTargets_ = on; }

    /** @name Statistics @{ */
    std::uint64_t marksIssued() const { return marksIssued_.value(); }
    std::uint64_t alreadyMarked() const { return alreadyMarked_.value(); }
    std::uint64_t newlyMarked() const { return newlyMarked_.value(); }
    std::uint64_t writebacksElided() const
    {
        return writebacksElided_.value();
    }
    std::uint64_t markCacheHits() const { return markCacheHits_.value(); }
    std::uint64_t tlbMissStalls() const { return tlbMissStalls_.value(); }
    const mem::TlbArray &tlb() const { return tlb_; }
    const std::unordered_map<Addr, std::uint64_t> &
    targetProfile() const
    {
        return targetProfile_;
    }
    /** @} */

  private:
    enum class SlotState : std::uint8_t
    {
        Free,
        AwaitRead,  //!< Status-word read in flight.
        Finish,     //!< Needs write-back and/or tracer push.
    };

    struct Slot
    {
        void
        serialize(checkpoint::Archive &ar)
        {
            ar(state, ref, paddr, newHeader, needWriteback,
               needTracePush, numRefs);
        }

        SlotState state = SlotState::Free;
        Addr ref = 0;   //!< Virtual address (for the tracer).
        Addr paddr = 0; //!< Translated status-word address.
        Word newHeader = 0;
        bool needWriteback = false;
        bool needTracePush = false;
        std::uint32_t numRefs = 0;
    };

    /** Tries to finish half-done slots (write-backs, tracer pushes). */
    void finishSlots(Tick now);

    /** Tries to start one new mark operation. */
    void issue(Tick now);

    int findFreeSlot() const;

    HwgcConfig config_;
    MarkQueue &markQueue_;
    TraceQueue &traceQueue_;
    mem::MemPort *port_;
    mem::Ptw &ptw_;
    unsigned ptwPort_ = 0; //!< Our requester port on the shared PTW.
    mem::TlbArray tlb_;
    MarkBitCache markBitCache_;

    std::vector<Slot> slots_;
    unsigned inFlightReads_ = 0;

    /** A dequeued reference parked while its page walk completes. */
    struct WalkWaiter
    {
        void
        serialize(checkpoint::Archive &ar)
        {
            ar(valid, walkRequested, ready, ref, pa);
        }

        bool valid = false;
        bool walkRequested = false;
        bool ready = false;
        Addr ref = 0;
        Addr pa = 0;
    };

    /** Sends the status-word read for @p ref; false if port full. */
    bool issueRead(Addr ref, Addr pa, Tick now);

    std::vector<WalkWaiter> waiters_;
    unsigned waitersActive_ = 0;

    bool profileTargets_ = false;
    std::unordered_map<Addr, std::uint64_t> targetProfile_;

    stats::Scalar marksIssued_{stats_, "marksIssued"};
    stats::Scalar alreadyMarked_{stats_, "alreadyMarked"};
    stats::Scalar newlyMarked_{stats_, "newlyMarked"};
    stats::Scalar writebacksElided_{stats_, "writebacksElided"};
    stats::Scalar markCacheHits_{stats_, "markCacheHits"};
    stats::Scalar tlbMissStalls_{stats_, "tlbMissStalls"};
};

} // namespace hwgc::core

#endif // HWGC_CORE_MARKER_H
