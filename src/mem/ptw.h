/**
 * @file
 * The blocking hardware page-table walker shared by the GC unit's
 * TLBs.
 *
 * The paper's prototype has exactly one blocking PTW backed by an
 * 8 KiB cache ("the PTW is backed by an 8KB cache, to hold the top
 * levels of the page table") and identifies it as a bottleneck:
 * "as the TLB and page table walker are blocking, TLB misses can
 * serialize execution" (§VI-A). This model reproduces that: one walk
 * in progress at a time, per-level PTE fetches issued through a
 * MemPort (either the PTW's private cache, or the shared unit cache
 * in the Fig 18a configuration), and a shared 128-entry L2 TLB
 * consulted before walking.
 *
 * Requesters attach through registered *ports* (registerRequester),
 * each with its own bounded request queue and the WalkResponder its
 * results go to, bound once, as a MemPort is bound to its
 * MemResponder. An issued walk is latched for one cycle (arriveAt =
 * issue + 1) before the walker can pick it up, and the walker starts
 * at most one queued walk per cycle, choosing the oldest arrival and
 * breaking same-cycle ties by port id, so the pick order is a pure
 * function of issue cycles and port ids. Queued walks, the walk in
 * progress and undelivered results are plain data (VA, cycle, port,
 * token) that a checkpoint stores as they are.
 */

#ifndef HWGC_MEM_PTW_H
#define HWGC_MEM_PTW_H

#include <deque>

#include "mem/page_table.h"
#include "mem/port.h"
#include "mem/tlb.h"
#include "sim/clocked.h"
#include "sim/stats.h"

namespace hwgc::mem
{

/** PTW configuration. */
struct PtwParams
{
    unsigned l2TlbEntries = 128;  //!< Shared L2 TLB (paper baseline).
    Tick l2TlbLatency = 2;        //!< L2 TLB hit latency.
    unsigned queueDepth = 16;     //!< Pending walks per requester port.
};

/** A resolved page walk, as delivered to its requester. */
struct WalkResult
{
    bool valid = false; //!< False: the virtual address is unmapped.
    Addr va = 0;
    Addr pa = 0;
    unsigned pageBits = 0; //!< log2 of the mapped page size (12, 21).
    std::uint64_t token = 0; //!< As passed to Ptw::requestWalk().
};

/** Receiver of a requester port's walk completions. */
class WalkResponder
{
  public:
    virtual ~WalkResponder() = default;

    /** Delivers one completed walk at time @p now. */
    virtual void onWalk(const WalkResult &walk, Tick now) = 0;
};

/** Blocking page-table walker with a shared L2 TLB. */
class Ptw : public Clocked, public MemResponder
{
  public:
    /**
     * @param port Where PTE fetches are sent (the walker does not own
     *        it). Must be wired so responses come back to this Ptw.
     */
    Ptw(std::string name, const PtwParams &params,
        const PageTable &page_table, MemPort *port);

    /**
     * Attaches a requester whose results go to @p responder and
     * returns its port id (registration order) for canRequest() /
     * requestWalk(). @p label names the port in a checkpoint,
     * conventionally the requester's name(). Call during
     * construction, before the first tick.
     */
    unsigned registerRequester(WalkResponder &responder,
                               std::string label);

    /** True if port @p port can queue another walk this cycle. */
    bool canRequest(unsigned port) const;

    /**
     * Queues a walk for @p va on @p port at cycle @p now. The walk
     * becomes visible to the walker one cycle later (the issue
     * latch); its result reaches the port's responder carrying the
     * requester-defined @p token.
     */
    void requestWalk(unsigned port, Addr va, Tick now,
                     std::uint64_t token = 0);

    // MemResponder interface (PTE fetch completions).
    void onResponse(const MemResponse &resp, Tick now) override;

    // Clocked interface.
    void tick(Tick now) override;
    bool busy() const override;
    Tick nextWakeup(Tick now) const override;
    CycleClass cycleClass(Tick now) const override;
    void serialize(checkpoint::Archive &ar) override;

    /** The shared second-level TLB (flush between phases); its
     *  counters are the child group "l2tlb". */
    TlbArray &l2Tlb() { return l2Tlb_; }

    /**
     * Retargets the walker at another tenant's page table (fleet
     * time-multiplexing). Callers must flush the TLBs and ensure no
     * walk is in flight — this is part of the §VII context switch.
     */
    void setPageTable(const PageTable &page_table);

    /** @name Statistics @{ */
    std::uint64_t walksStarted() const { return walks_.value(); }
    std::uint64_t l2TlbHits() const { return l2Hits_.value(); }
    std::uint64_t pteFetches() const { return pteFetches_.value(); }
    /** @} */

  private:
    struct WalkRequest
    {
        void serialize(checkpoint::Archive &ar) { ar(va, arriveAt, token); }

        Addr va = 0;
        Tick arriveAt = 0;  //!< Issue cycle + 1 (the issue latch).
        std::uint64_t token = 0;  //!< Requester-defined.
    };

    /** A resolved walk waiting out its latency. */
    struct Completion
    {
        void
        serialize(checkpoint::Archive &ar)
        {
            ar(readyAt, result.valid, result.va, result.pa,
               result.pageBits, port, result.token);
        }

        Tick readyAt = 0;
        unsigned port = 0; //!< The issuing port.
        WalkResult result;
    };

    /** One requester attachment. */
    struct Port
    {
        WalkResponder *responder = nullptr;
        std::string label;
        std::deque<WalkRequest> queue;
    };

    /** Issues the PTE fetch for the current level if the port has room. */
    void issueLevel(Tick now);

    /** Queues the current walk's result for delivery at @p ready_at. */
    void complete(bool valid, Addr pa, unsigned page_bits, Tick ready_at);

    bool anyQueued() const;

    PtwParams params_;
    const PageTable *pageTable_;
    MemPort *port_;
    TlbArray l2Tlb_;

    std::vector<Port> ports_;
    std::deque<Completion> completions_;

    // Current walk state.
    bool walking_ = false;
    bool awaitingResponse_ = false;
    WalkRequest current_;
    unsigned currentPort_ = 0;
    PageTable::WalkResult walkPlan_;
    unsigned level_ = 0;

    stats::Scalar walks_{stats_, "walks"};
    stats::Scalar l2Hits_{stats_, "l2TlbHits"};
    stats::Scalar pteFetches_{stats_, "pteFetches"};
};

} // namespace hwgc::mem

#endif // HWGC_MEM_PTW_H
