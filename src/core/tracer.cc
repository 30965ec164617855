/**
 * @file
 * Tracer implementation.
 */

#include "tracer.h"

#include "runtime/object_model.h"

namespace hwgc::core
{

using runtime::ObjectModel;

Tracer::Tracer(std::string name, const HwgcConfig &config,
               TraceQueue &trace_queue, MarkQueue &mark_queue,
               mem::MemPort *port, mem::Ptw &ptw)
    : Clocked(std::move(name)), config_(config), traceQueue_(trace_queue),
      markQueue_(mark_queue), port_(port), ptw_(ptw),
      tlb_(stats_, "tlb", config.unitTlbEntries)
{
    // Replays throttle stalls and blocked retries' TLB hits.
    hasFastForward_ = true;
    panic_if(port_ == nullptr, "tracer needs a memory port");
    ptwPort_ = ptw_.registerRequester(*this, this->name());
}

unsigned
Tracer::nextTransferSize(Addr addr, std::uint64_t remaining)
{
    for (unsigned size : {64u, 32u, 16u, 8u}) {
        if (size <= remaining && addr % size == 0) {
            return size;
        }
    }
    panic("tracer cursor %#llx not word aligned",
          (unsigned long long)addr);
}

bool
Tracer::idle() const
{
    return !active_ && traceQueue_.empty() && inFlight_ == 0 &&
        pendingRefs_.empty() && !walkPending_;
}

std::optional<Addr>
Tracer::translate(Addr va, Tick now)
{
    if (walkDone_ && walkVa_ == alignDown(va, pageBytes)) {
        return walkPa_ + (va % pageBytes);
    }
    if (walkPending_) {
        // Blocked on the PTW: don't re-probe the TLB every cycle (the
        // probe updates hit/miss stats and LRU state, which must look
        // the same whether or not the kernel skips blocked cycles).
        return std::nullopt;
    }
    if (const auto pa = tlb_.lookup(va)) {
        panic_if(numProbes_ == probeSlots_.size(),
                 "%s: more TLB probes in one issue attempt than recorded",
                 name().c_str());
        probeSlots_[numProbes_++] = tlb_.lastHitSlot();
        return *pa;
    }
    if (ptw_.canRequest(ptwPort_)) {
        walkPending_ = true;
        walkDone_ = false;
        ptw_.requestWalk(ptwPort_, va, now);
    }
    return std::nullopt;
}

void
Tracer::onWalk(const mem::WalkResult &walk, Tick now)
{
    (void)now;
    fatal_if(!walk.valid, "tracer touched unmapped VA %#llx",
             (unsigned long long)walk.va);
    tlb_.insert(walk.va, walk.pa, walk.pageBits);
    walkVa_ = alignDown(walk.va, pageBytes);
    walkPa_ = alignDown(walk.pa, pageBytes);
    walkPending_ = false;
    walkDone_ = true;
}

bool
Tracer::mayIssue() const
{
    if (markQueue_.throttle()) {
        return false; // outQ fill signal (paper Fig 12).
    }
    if (pendingRefs_.size() >= config_.tracerPendingRefs) {
        return false; // Response buffer back-pressure.
    }
    if (config_.tracerTagSlots != 0 &&
        inFlight_ >= config_.tracerTagSlots) {
        return false; // Tagged-tracer ablation.
    }
    if (!config_.decoupledTracer && marker_ != nullptr &&
        marker_->inFlight() != 0) {
        return false; // Coupled-pipeline ablation.
    }
    return true;
}

bool
Tracer::issueReady() const
{
    if (!active_ && traceQueue_.empty()) {
        return false;
    }
    if (!mayIssue() || walkPending_) {
        return false;
    }
    return !(active_ && (active_->awaitTibPtr || active_->awaitTibMeta));
}

bool
Tracer::trySend(const mem::MemRequest &req, Tick now)
{
    if (!port_->canSend()) {
        portRefused_ = true;
        return false;
    }
    port_->send(req, now);
    ++inFlight_;
    ++requests_;
    bytesRequested_ += req.size;
    return true;
}

void
Tracer::onResponse(const mem::MemResponse &resp, Tick now)
{
    pokeWakeup();
    (void)now;
    panic_if(inFlight_ == 0, "tracer in-flight underflow");
    --inFlight_;

    switch (resp.req.tag) {
      case kindRefData:
        for (unsigned i = 0; i < resp.req.words(); ++i) {
            const Addr ref = resp.rdata[i];
            if (ref == runtime::nullRef) {
                ++nullsDropped_;
            } else {
                pendingRefs_.push_back(ref);
            }
        }
        break;
      case kindTibPtr:
        panic_if(!active_ || !active_->awaitTibPtr,
                 "unexpected TIB pointer response");
        active_->tibAddr = resp.rdata[0];
        active_->awaitTibPtr = false;
        active_->needTibMeta = true;
        break;
      case kindTibMeta:
        if (active_ && active_->awaitTibMeta) {
            active_->awaitTibMeta = false;
        }
        break;
      default:
        panic("unknown tracer request kind %llu",
              (unsigned long long)resp.req.tag);
    }
}

void
Tracer::drainPendingRefs()
{
    unsigned moved = 0;
    while (moved < 4 && !pendingRefs_.empty() &&
           markQueue_.canEnqueue()) {
        markQueue_.enqueue(pendingRefs_.front());
        pendingRefs_.pop_front();
        ++refsEnqueued_;
        ++moved;
    }
}

void
Tracer::issue(Tick now)
{
    portRefused_ = false;
    numProbes_ = 0;
    if (!active_ && traceQueue_.empty()) {
        return; // Nothing to trace; idle cycles are not throttle stalls.
    }
    if (!mayIssue()) {
        ++throttled_;
        return;
    }

    // Pop the next object when idle.
    if (!active_) {
        const TraceEntry entry = traceQueue_.pop();
        if (marker_ != nullptr) {
            // The freed trace-queue slot may unblock a marker Finish
            // slot waiting on canPush(); the queue itself is unclocked
            // so the kernel cannot see this hand-off.
            pokeWakeup(*marker_);
        }
        Active a;
        a.ref = entry.ref;
        a.numRefs = entry.numRefs;
        a.cursor = ObjectModel::refsBase(entry.ref, entry.numRefs);
        a.end = entry.ref;
        if (config_.layout == runtime::Layout::Tib) {
            a.needTibPtr = true;
        }
        active_ = a;
        ++objects_;
        DPRINTF(now, "Tracer", "%s: trace object ref=%#llx refs=%u",
                name().c_str(), (unsigned long long)a.ref, a.numRefs);
    }
    Active &a = *active_;

    // Conventional-layout preamble: dependent TIB pointer + metadata.
    if (a.needTibPtr || a.awaitTibPtr) {
        if (a.awaitTibPtr) {
            return; // Dependent load: must wait for the pointer.
        }
        const Addr ptr_va = a.ref + wordBytes;
        const auto pa = translate(ptr_va, now);
        if (!pa) {
            return;
        }
        mem::MemRequest req;
        req.paddr = *pa;
        req.size = wordBytes;
        req.op = mem::Op::Read;
        req.tag = kindTibPtr;
        if (!trySend(req, now)) {
            return;
        }
        ++tibReads_;
        a.needTibPtr = false;
        a.awaitTibPtr = true;
        return;
    }
    if (a.needTibMeta || a.awaitTibMeta) {
        if (a.awaitTibMeta) {
            return; // Dependent: offsets unknown until the TIB loads.
        }
        const auto pa = translate(a.tibAddr, now);
        if (!pa) {
            return;
        }
        mem::MemRequest req;
        req.paddr = *pa;
        req.size = wordBytes;
        req.op = mem::Op::Read;
        req.tag = kindTibMeta;
        if (!trySend(req, now)) {
            return;
        }
        ++tibReads_;
        a.needTibMeta = false;
        a.awaitTibMeta = true;
        return;
    }

    if (a.cursor >= a.end) {
        active_.reset();
        return;
    }

    const auto pa = translate(a.cursor, now);
    if (!pa) {
        return; // Blocking TLB miss.
    }

    if (config_.layout == runtime::Layout::Tib) {
        // Scattered fields: one slot per request, preceded by an
        // offset-word read from the TIB for every group of eight
        // slots (the offsets tell a real tracer where the fields
        // are, so the group's slot reads depend on it).
        const std::uint32_t group = a.slotsIssued / 8;
        if (a.slotsIssued % 8 == 0 && a.nextOffsetGroup == group) {
            const Addr off_va =
                a.tibAddr + wordBytes + Addr(group) * wordBytes;
            const auto off_pa = translate(off_va, now);
            if (!off_pa) {
                return;
            }
            mem::MemRequest off;
            off.paddr = *off_pa;
            off.size = wordBytes;
            off.op = mem::Op::Read;
            off.tag = kindTibMeta;
            if (!trySend(off, now)) {
                return;
            }
            ++tibReads_;
            a.nextOffsetGroup = group + 1;
            return; // One request per cycle.
        }
        mem::MemRequest req;
        req.paddr = *pa;
        req.size = wordBytes;
        req.op = mem::Op::Read;
        req.tag = kindRefData;
        if (!trySend(req, now)) {
            return;
        }
        ++a.slotsIssued;
        a.cursor += wordBytes;
        return;
    }

    // Bidirectional layout: largest aligned transfer that tiles the
    // remaining reference section, clipped at the page boundary
    // (aligned power-of-two transfers never straddle a page).
    const std::uint64_t remaining = a.end - a.cursor;
    const unsigned size = nextTransferSize(a.cursor, remaining);
    if (alignDown(a.cursor, pageBytes) !=
        alignDown(a.cursor + size - 1, pageBytes)) {
        panic("aligned transfer crosses a page");
    }
    mem::MemRequest req;
    req.paddr = *pa;
    req.size = size;
    req.op = mem::Op::Read;
    req.tag = kindRefData;
    if (!trySend(req, now)) {
        return;
    }
    const Addr old_page = alignDown(a.cursor, pageBytes);
    a.cursor += size;
    if (a.cursor < a.end &&
        alignDown(a.cursor, pageBytes) != old_page) {
        ++pageCrossings_; // Next transfer re-translates (paper Fig 14).
    }
    if (a.cursor >= a.end) {
        active_.reset();
    }
}

void
Tracer::tick(Tick now)
{
    drainPendingRefs();
    issue(now);
}

Tick
Tracer::nextWakeup(Tick now) const
{
    if (!pendingRefs_.empty() && markQueue_.canEnqueue()) {
        // Drain attempt. A full mark queue makes the drain a no-op;
        // its space returns through a marker or mark-queue tick
        // (declared inputs) or a spill completion (which pokes us).
        return now;
    }
    if (!issueReady()) {
        // Nothing to issue, or throttled, or blocked on a PTW walk
        // or a dependent TIB load: every input changes only inside a
        // declared input's tick or a callback that pokes us.
        // throttledCycles accrues in fastForward().
        return maxTick;
    }
    if (portBlocked()) {
        // Blocked retry: the port's owner pokes us when it drains,
        // and fastForward() replays the retries' TLB probes.
        return maxTick;
    }
    return now;
}

CycleClass
Tracer::cycleClass(Tick now) const
{
    (void)now;
    if (!pendingRefs_.empty() || issueReady()) {
        // A drain or an issue attempt. The retries of a request the
        // full port keeps refusing read Busy too, as they did when the
        // tracer ticked through them; calling them a stall would move
        // the profile and is left to a change that re-baselines it.
        return CycleClass::Busy;
    }
    if (active_ || !traceQueue_.empty()) {
        // Throttle inputs in mayIssue() order, so the first blocking
        // condition names the stall.
        if (markQueue_.throttle() ||
            pendingRefs_.size() >= config_.tracerPendingRefs) {
            return CycleClass::StallDownstreamFull;
        }
        if (config_.tracerTagSlots != 0 &&
            inFlight_ >= config_.tracerTagSlots) {
            return CycleClass::StallDram; // Tag slots all in flight.
        }
        if (!config_.decoupledTracer && marker_ != nullptr &&
            marker_->inFlight() != 0) {
            return CycleClass::StallBarrier; // Coupled-pipeline wait.
        }
        if (walkPending_) {
            return CycleClass::StallPtw;
        }
        return CycleClass::StallDram; // Dependent TIB load in flight.
    }
    if (walkPending_) {
        return CycleClass::StallPtw;
    }
    if (inFlight_ != 0) {
        return CycleClass::StallDram; // Reads draining into responses.
    }
    // Drained: starved while the marker still generates trace work.
    return marker_ != nullptr && marker_->busy()
               ? CycleClass::StallUpstreamEmpty
               : CycleClass::Idle;
}

void
Tracer::fastForward(Tick from, Tick to)
{
    // Replay what the skipped ticks would have done. Only two kinds
    // of tick change anything while the tracer sleeps with work: a
    // throttled one counts a stall, and a retry of the refused
    // request repeats its TLB hits. Both inputs hold across the span,
    // since only other components' ticks and callbacks change them.
    if (!active_ && traceQueue_.empty()) {
        return;
    }
    if (!mayIssue()) {
        throttled_ += to - from;
        return;
    }
    if (portRefused_) {
        panic_if(port_->canSend(),
                 "%s: skipped cycles [%llu, %llu) its port would have "
                 "accepted", name().c_str(), (unsigned long long)from,
                 (unsigned long long)to);
        tlb_.replayHits(probeSlots_.data(), numProbes_, to - from);
    }
}

void
Tracer::serialize(checkpoint::Archive &ar)
{
    ar(active_, inFlight_, pendingRefs_, walkPending_, walkDone_,
       walkPa_, walkVa_, stats_, tlb_);
    if (ar.loading()) {
        portRefused_ = false; // A host-side memo: the next tick redoes it.
    }
}

void
Tracer::reset()
{
    panic_if(!idle(), "tracer reset while active");
    tlb_.flush();
    walkDone_ = false;
    portRefused_ = false;
}

} // namespace hwgc::core
