/**
 * @file
 * Marker implementation.
 */

#include "marker.h"

#include <algorithm>

#include "runtime/object_model.h"

namespace hwgc::core
{

using runtime::StatusWord;

Marker::Marker(std::string name, const HwgcConfig &config,
               MarkQueue &mark_queue, TraceQueue &trace_queue,
               mem::MemPort *port, mem::Ptw &ptw)
    : Clocked(std::move(name)), config_(config), markQueue_(mark_queue),
      traceQueue_(trace_queue), port_(port), ptw_(ptw),
      tlb_(stats_, "tlb", config.unitTlbEntries),
      markBitCache_(config.markBitCacheEntries),
      slots_(config.markerSlots),
      waiters_(std::max(1u, config.markerWalkWaiters))
{
    hasFastForward_ = true; // Accrues tlbMissStalls over skipped spans.
    panic_if(port_ == nullptr, "marker needs a memory port");
    panic_if(config_.markerSlots == 0, "marker needs request slots");
    ptwPort_ = ptw_.registerRequester(*this, this->name());
}

bool
Marker::idle() const
{
    if (waitersActive_ != 0) {
        return false;
    }
    for (const auto &slot : slots_) {
        if (slot.state != SlotState::Free) {
            return false;
        }
    }
    return true;
}

int
Marker::findFreeSlot() const
{
    for (std::size_t i = 0; i < slots_.size(); ++i) {
        if (slots_[i].state == SlotState::Free) {
            return int(i);
        }
    }
    return -1;
}

void
Marker::onResponse(const mem::MemResponse &resp, Tick now)
{
    pokeWakeup();
    (void)now;
    if (resp.req.isWrite()) {
        return; // Write-back ack; the slot was already released.
    }
    panic_if(resp.req.tag >= slots_.size(), "bad marker tag");
    Slot &slot = slots_[resp.req.tag];
    panic_if(slot.state != SlotState::AwaitRead,
             "marker response for idle slot");
    panic_if(inFlightReads_ == 0, "marker in-flight underflow");
    --inFlightReads_;

    const Word old_header = resp.rdata[0];
    panic_if(!StatusWord::live(old_header),
             "marker read a non-live header at %#llx",
             (unsigned long long)slot.ref);

    if (StatusWord::marked(old_header)) {
        // Already marked: elide the write-back, free the slot. Still
        // remember the reference — the cache filters *recently
        // accessed* objects (paper §V-C), and hot objects are mostly
        // seen via repeat accesses.
        markBitCache_.insert(slot.ref);
        ++alreadyMarked_;
        ++writebacksElided_;
        slot.state = SlotState::Free;
        return;
    }

    ++newlyMarked_;
    slot.newHeader = old_header | StatusWord::markBit;
    slot.needWriteback = true;
    slot.numRefs = StatusWord::numRefs(old_header);
    slot.needTracePush = slot.numRefs > 0;
    slot.state = SlotState::Finish;
    markBitCache_.insert(slot.ref);
}

void
Marker::finishSlots(Tick now)
{
    for (auto &slot : slots_) {
        if (slot.state != SlotState::Finish) {
            continue;
        }
        if (slot.needWriteback) {
            mem::MemRequest wb;
            wb.paddr = slot.paddr;
            wb.size = wordBytes;
            wb.op = mem::Op::Write;
            wb.wdata[0] = slot.newHeader;
            wb.tag = std::uint64_t(&slot - slots_.data());
            if (!port_->canSend()) {
                continue;
            }
            port_->send(wb, now);
            slot.needWriteback = false;
        }
        if (slot.needTracePush) {
            if (!traceQueue_.canPush()) {
                continue;
            }
            traceQueue_.push({slot.ref, slot.numRefs});
            slot.needTracePush = false;
        }
        slot.state = SlotState::Free;
    }
}

bool
Marker::issueRead(Addr ref, Addr pa, Tick now)
{
    const int idx = findFreeSlot();
    if (idx < 0) {
        return false;
    }
    mem::MemRequest req;
    req.paddr = pa;
    req.size = wordBytes;
    req.op = mem::Op::Read;
    req.tag = std::uint64_t(idx);
    if (!port_->canSend()) {
        return false;
    }
    Slot &slot = slots_[idx];
    slot.state = SlotState::AwaitRead;
    slot.ref = ref;
    slot.paddr = pa;
    port_->send(req, now);
    ++inFlightReads_;
    ++marksIssued_;
    DPRINTF(now, "Marker", "%s: mark read ref=%#llx pa=%#llx slot=%d",
            name().c_str(), (unsigned long long)ref,
            (unsigned long long)pa, idx);
    return true;
}

void
Marker::issue(Tick now)
{
    // Ready walk waiters have priority (their references are oldest).
    for (auto &waiter : waiters_) {
        if (waiter.valid && waiter.ready) {
            if (issueRead(waiter.ref, waiter.pa, now)) {
                waiter.valid = false;
                --waitersActive_;
            }
            return; // One issue per cycle.
        }
    }

    if (!markQueue_.canDequeue()) {
        return;
    }
    // Hit-under-miss: keep issuing TLB hits while up to N misses walk;
    // a full waiter station stalls the marker (the Fig 17/§VI-A TLB
    // serialization bottleneck).
    if (waitersActive_ >= waiters_.size()) {
        ++tlbMissStalls_;
        return;
    }
    if (findFreeSlot() < 0) {
        return;
    }
    if (!port_->canSend()) {
        return;
    }

    const Addr ref = markQueue_.dequeue();
    if (profileTargets_) {
        ++targetProfile_[ref];
    }
    if (markBitCache_.enabled() && markBitCache_.contains(ref)) {
        ++markCacheHits_;
        return; // Filtered: known recently marked.
    }

    if (const auto pa = tlb_.lookup(ref)) {
        const bool sent = issueRead(ref, *pa, now);
        panic_if(!sent, "marker issue failed after resource check");
        return;
    }

    // TLB miss: park the reference and request a (serialized) walk.
    for (std::size_t i = 0; i < waiters_.size(); ++i) {
        WalkWaiter &waiter = waiters_[i];
        if (waiter.valid) {
            continue;
        }
        waiter.valid = true;
        waiter.walkRequested = false;
        waiter.ready = false;
        waiter.ref = ref;
        ++waitersActive_;
        break;
    }
}

void
Marker::onWalk(const mem::WalkResult &walk, Tick now)
{
    (void)now;
    panic_if(walk.token >= waiters_.size(), "bad marker walk token %llu",
             (unsigned long long)walk.token);
    fatal_if(!walk.valid, "GC unit touched unmapped VA %#llx",
             (unsigned long long)walk.va);
    tlb_.insert(walk.va, walk.pa, walk.pageBits);
    WalkWaiter &w = waiters_[std::size_t(walk.token)];
    panic_if(!w.valid || w.ready, "stale marker walk completion");
    w.pa = walk.pa;
    w.ready = true;
}

void
Marker::tick(Tick now)
{
    finishSlots(now);

    // Launch walks for parked references as the PTW frees up.
    for (std::size_t i = 0; i < waiters_.size(); ++i) {
        WalkWaiter &waiter = waiters_[i];
        if (!waiter.valid || waiter.walkRequested || waiter.ready ||
            !ptw_.canRequest(ptwPort_)) {
            continue;
        }
        waiter.walkRequested = true;
        ptw_.requestWalk(ptwPort_, waiter.ref, now, i);
    }

    issue(now);
}

Tick
Marker::nextWakeup(Tick now) const
{
    // Every issue path needs the memory port; probe it once. While it
    // is full, retry ticks are no-ops: the port drains inside a
    // bus/cache tick and every executed cycle re-polls all wakeups.
    const bool can_send = port_->canSend();

    for (const auto &slot : slots_) {
        if (slot.state != SlotState::Finish) {
            continue;
        }
        if (slot.needWriteback) {
            if (can_send) {
                return now; // Write-back can retire.
            }
            continue; // Blocked on the port.
        }
        if (!slot.needTracePush || traceQueue_.canPush()) {
            return now; // Trace push (or plain free) can retire.
        }
        // Otherwise blocked on trace-queue space (a tracer tick pops).
    }
    const bool slot_free = findFreeSlot() >= 0;
    for (const auto &waiter : waiters_) {
        if (!waiter.valid) {
            continue;
        }
        if (waiter.ready) {
            if (slot_free && can_send) {
                return now; // Parked reference can issue.
            }
            continue; // Blocked on a slot or the port.
        }
        if (!waiter.walkRequested && ptw_.canRequest(ptwPort_)) {
            return now; // A walk can be launched.
        }
    }
    if (markQueue_.canDequeue() && waitersActive_ < waiters_.size() &&
        slot_free && can_send) {
        // Note this fires even when the marker itself is idle: the
        // mark queue's entries are pulled from here. The waiters-full
        // TLB stall is *not* a wakeup — tlbMissStalls accrues in
        // fastForward() and the unblocking walk completion runs
        // inside a PTW tick, which re-polls every component.
        return now;
    }
    // Remaining states (reads in flight, walks pending, stalls on the
    // port / slots / waiter station / trace queue) progress only
    // through other components' ticks or response callbacks.
    return maxTick;
}

CycleClass
Marker::cycleClass(Tick now) const
{
    (void)now;
    // One pass over the slots and one over the waiters. Any action a
    // tick could take (a due condition of nextWakeup()) makes the
    // cycle Busy; otherwise whatever kept each action from firing is
    // what this cycle waited on, the most downstream blockage first.
    const bool can_send = port_->canSend();
    bool slot_free = false;
    std::optional<CycleClass> finish_stall;
    for (const auto &slot : slots_) {
        if (slot.state == SlotState::Free) {
            slot_free = true;
            continue;
        }
        if (slot.state != SlotState::Finish) {
            continue;
        }
        // A write-back retires through the memory port, a trace push
        // (or a plain free) through the trace queue.
        if (slot.needWriteback ? can_send
                               : !slot.needTracePush ||
                                     traceQueue_.canPush()) {
            return CycleClass::Busy;
        }
        if (!finish_stall) {
            finish_stall = slot.needWriteback
                ? CycleClass::StallBus
                : CycleClass::StallDownstreamFull;
        }
    }
    bool ready_waiter = false;
    for (const auto &waiter : waiters_) {
        if (!waiter.valid) {
            continue;
        }
        if (waiter.ready) {
            if (slot_free && can_send) {
                return CycleClass::Busy; // Parked reference can issue.
            }
            ready_waiter = true;
        } else if (!waiter.walkRequested && ptw_.canRequest(ptwPort_)) {
            return CycleClass::Busy; // A walk can be launched.
        }
    }
    const bool can_dequeue = markQueue_.canDequeue();
    if (can_dequeue && waitersActive_ < waiters_.size() && slot_free &&
        can_send) {
        return CycleClass::Busy; // Pulls a reference from the queue.
    }
    if (finish_stall) {
        return *finish_stall;
    }
    if (ready_waiter) {
        // A translated reference that cannot issue: every slot is
        // held by an in-flight status-word read, or the port is full.
        return slot_free ? CycleClass::StallBus : CycleClass::StallMarkbit;
    }
    if (can_dequeue) {
        if (waitersActive_ >= waiters_.size()) {
            return CycleClass::StallPtw; // TLB-walk serialization.
        }
        if (!slot_free) {
            return CycleClass::StallMarkbit;
        }
        return CycleClass::StallBus; // Port full (else it were due).
    }
    if (waitersActive_ != 0) {
        return CycleClass::StallPtw; // Walks pending or in flight.
    }
    if (inFlightReads_ != 0) {
        return CycleClass::StallMarkbit; // Status-word reads in flight.
    }
    return markQueue_.empty() ? CycleClass::Idle
                              : CycleClass::StallUpstreamEmpty;
}

void
Marker::fastForward(Tick from, Tick to)
{
    // The dense kernel counts one TLB-miss stall per cycle the marker
    // spends with dequeueable work but a full walk-waiter station.
    // That state is frozen across cycles the kernel skips us (only
    // ticks mutate it), so the skipped span accrues in one step —
    // unless a ready waiter is parked: dense ticks stop at the ready
    // waiter before the stall check and count nothing.
    if (!markQueue_.canDequeue() || waitersActive_ < waiters_.size()) {
        return;
    }
    for (const auto &waiter : waiters_) {
        if (waiter.valid && waiter.ready) {
            return;
        }
    }
    tlbMissStalls_ += to - from;
}

void
Marker::serialize(checkpoint::Archive &ar)
{
    const std::uint64_t num_slots = ar.count(slots_.size());
    if (ar.loading()) {
        fatal_if(num_slots != slots_.size(),
                 "checkpoint '%s': marker has %llu slots but this "
                 "configuration has %zu — configurations differ",
                 ar.origin().c_str(), (unsigned long long)num_slots,
                 slots_.size());
    }
    for (Slot &slot : slots_) {
        ar(slot);
    }
    ar(inFlightReads_);
    const std::uint64_t num_waiters = ar.count(waiters_.size());
    if (ar.loading()) {
        fatal_if(num_waiters != waiters_.size(),
                 "checkpoint '%s': marker has %llu walk waiters but "
                 "this configuration has %zu — configurations differ",
                 ar.origin().c_str(), (unsigned long long)num_waiters,
                 waiters_.size());
    }
    for (WalkWaiter &waiter : waiters_) {
        ar(waiter);
    }
    ar(waitersActive_, markBitCache_, profileTargets_, targetProfile_,
       stats_, tlb_);
}

void
Marker::reset()
{
    panic_if(!idle(), "marker reset while active");
    tlb_.flush();
    markBitCache_.clear();
    targetProfile_.clear();
}

} // namespace hwgc::core
