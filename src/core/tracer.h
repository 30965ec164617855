/**
 * @file
 * The tracer pipeline stage (paper Fig 14, §IV-A idea III).
 *
 * The tracer walks each newly marked object's reference section and
 * copies the references into the mark queue. Because "the order in
 * which references are added to the mark queue does not affect
 * correctness", it keeps no per-request state: it issues untagged
 * reads as fast as the memory system accepts them and enqueues
 * response words in arrival order. The request generator issues the
 * largest naturally aligned transfers (8/16/32/64 B) that tile the
 * reference section — e.g. 15 references at 0x1a18 become transfers
 * of 8, 32, 64, 16 bytes — and re-translates at page boundaries.
 *
 * Two ablation knobs model the paper's design claims: a coupled mode
 * (tracer only runs while the marker is drained — removing idea II)
 * and a tagged mode (bounded in-flight requests — removing idea III).
 * The conventional-layout (TIB) mode models Fig 6a: a dependent
 * tibPtr load, a TIB metadata load, per-8-slot offset-word loads, and
 * scattered single-word reference reads.
 */

#ifndef HWGC_CORE_TRACER_H
#define HWGC_CORE_TRACER_H

#include <array>
#include <deque>
#include <optional>

#include "core/hwgc_config.h"
#include "core/mark_queue.h"
#include "core/marker.h"
#include "core/trace_queue.h"

namespace hwgc::core
{

/** The tracer. */
class Tracer : public Clocked,
               public mem::MemResponder,
               public mem::WalkResponder
{
  public:
    Tracer(std::string name, const HwgcConfig &config,
           TraceQueue &trace_queue, MarkQueue &mark_queue,
           mem::MemPort *port, mem::Ptw &ptw);

    /** Wires the marker for the coupled-pipeline ablation. */
    void setMarker(const Marker *marker) { marker_ = marker; }

    /** True when no object, request or buffered reference remains. */
    bool idle() const;

    /** True while the tracer sleeps on a request its full memory
     *  port refused (see portRefused_). */
    bool
    portBlocked() const
    {
        return portRefused_ && !port_->canSend();
    }

    // MemResponder interface.
    void onResponse(const mem::MemResponse &resp, Tick now) override;

    /** WalkResponder interface: installs the translation and keeps
     *  the walked page as a memo the next translate() reads first. */
    void onWalk(const mem::WalkResult &walk, Tick now) override;

    // Clocked interface.
    void tick(Tick now) override;
    bool busy() const override { return !idle(); }
    Tick nextWakeup(Tick now) const override;
    CycleClass cycleClass(Tick now) const override;
    void fastForward(Tick from, Tick to) override;
    void serialize(checkpoint::Archive &ar) override;

    void reset();

    /** @name Statistics @{ */
    std::uint64_t requestsIssued() const { return requests_.value(); }
    std::uint64_t bytesRequested() const { return bytesRequested_.value(); }
    std::uint64_t refsEnqueued() const { return refsEnqueued_.value(); }
    std::uint64_t nullRefsDropped() const { return nullsDropped_.value(); }
    std::uint64_t objectsTraced() const { return objects_.value(); }
    std::uint64_t pageCrossings() const { return pageCrossings_.value(); }
    std::uint64_t throttledCycles() const { return throttled_.value(); }
    std::uint64_t tibExtraReads() const { return tibReads_.value(); }
    const mem::TlbArray &tlb() const { return tlb_; }
    /** @} */

    /**
     * Computes the next transfer size for a cursor at @p addr with
     * @p remaining bytes left: the largest of {64,32,16,8} that is
     * naturally aligned at @p addr and fits. Exposed for unit tests
     * (the paper's 15-references example).
     */
    static unsigned nextTransferSize(Addr addr, std::uint64_t remaining);

  private:
    /** Request kinds encoded in the (otherwise unused) tag field. */
    enum ReqKind : std::uint64_t
    {
        kindRefData = 0, //!< Response words are reference slots.
        kindTibPtr = 1,  //!< Response word is the TIB pointer.
        kindTibMeta = 2, //!< TIB metadata / offset words (discarded).
    };

    /** The object currently being walked. */
    struct Active
    {
        void
        serialize(checkpoint::Archive &ar)
        {
            ar(ref, cursor, end, numRefs, slotsIssued, nextOffsetGroup,
               needTibPtr, awaitTibPtr, needTibMeta, awaitTibMeta,
               tibAddr);
        }

        Addr ref = 0;       //!< Status-word VA.
        Addr cursor = 0;    //!< Next reference-slot VA to request.
        Addr end = 0;       //!< One past the last slot (== ref).
        std::uint32_t numRefs = 0;
        std::uint32_t slotsIssued = 0;
        std::uint32_t nextOffsetGroup = 0; //!< TIB offset words read.
        // TIB-mode sub-state.
        bool needTibPtr = false;
        bool awaitTibPtr = false;
        bool needTibMeta = false;
        bool awaitTibMeta = false;
        Addr tibAddr = 0;
    };

    /** Translates @p va, stalling on the blocking PTW if needed.
     *  @return The physical address, or nullopt while walking. */
    std::optional<Addr> translate(Addr va, Tick now);

    /** Returns true if issuing is currently allowed. */
    bool mayIssue() const;

    /** True when a tick would attempt an issue: work is waiting,
     *  mayIssue() holds, and no walk or dependent TIB load blocks. */
    bool issueReady() const;

    /** Sends @p req if the port accepts it; otherwise records the
     *  refused attempt (see portRefused_) and returns false. */
    bool trySend(const mem::MemRequest &req, Tick now);

    void issue(Tick now);
    void drainPendingRefs();

    HwgcConfig config_;
    TraceQueue &traceQueue_;
    MarkQueue &markQueue_;
    mem::MemPort *port_;
    mem::Ptw &ptw_;
    unsigned ptwPort_ = 0; //!< Our requester port on the shared PTW.
    mem::TlbArray tlb_;
    const Marker *marker_ = nullptr;

    std::optional<Active> active_;
    unsigned inFlight_ = 0;        //!< Outstanding requests (counted,
                                   //!< not tagged).
    std::deque<Addr> pendingRefs_; //!< Response refs awaiting enqueue.

    bool walkPending_ = false;
    bool walkDone_ = false;
    Addr walkPa_ = 0;
    Addr walkVa_ = 0;

    /**
     * @name The last issue attempt, if the memory port refused it
     * Until the port accepts, every further tick repeats that attempt
     * exactly: the same TLB hits (nothing inserts into the TLB while
     * no walk is pending) and the same refusal. So the tracer sleeps
     * until the port's owner pokes it, and fastForward() replays the
     * skipped attempts' TLB probes. A host-side memo, not
     * architectural state: it is not checkpointed, and a restored
     * tracer ticks once to re-derive it.
     * @{
     */
    bool portRefused_ = false;
    std::array<unsigned, 2> probeSlots_{}; //!< TLB slots hit, in order.
    unsigned numProbes_ = 0;
    /** @} */

    stats::Scalar requests_{stats_, "requests"};
    stats::Scalar bytesRequested_{stats_, "bytesRequested"};
    stats::Scalar refsEnqueued_{stats_, "refsEnqueued"};
    stats::Scalar nullsDropped_{stats_, "nullRefsDropped"};
    stats::Scalar objects_{stats_, "objectsTraced"};
    stats::Scalar pageCrossings_{stats_, "pageCrossings"};
    stats::Scalar throttled_{stats_, "throttledCycles"};
    stats::Scalar tibReads_{stats_, "tibExtraReads"};
};

} // namespace hwgc::core

#endif // HWGC_CORE_TRACER_H
