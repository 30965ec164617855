/**
 * @file
 * Root reader implementation.
 */

#include "root_reader.h"

#include "core/tracer.h"

namespace hwgc::core
{

RootReader::RootReader(std::string name, const HwgcConfig &config,
                       MarkQueue &mark_queue, mem::MemPort *port,
                       mem::Ptw &ptw)
    : Clocked(std::move(name)), config_(config), markQueue_(mark_queue),
      port_(port), translator_(ptw, *this, 4)
{
    panic_if(port_ == nullptr, "root reader needs a memory port");
}

void
RootReader::start(Addr base_va, std::uint64_t count)
{
    pokeWakeup(); // External MMIO-style kick.
    panic_if(!done(), "root reader restarted while active");
    panic_if(base_va % lineBytes != 0,
             "hwgc-space must be line aligned");
    base_ = base_va;
    cursor_ = base_va;
    end_ = base_va + count * wordBytes;
    doneAt_ = 0;
    DPRINTF(0, "RootReader", "%s: armed base=%#llx roots=%llu",
            name().c_str(), (unsigned long long)base_va,
            (unsigned long long)count);
}

void
RootReader::extend(std::uint64_t count)
{
    pokeWakeup(); // May reopen a finished cursor.
    panic_if(base_ == 0 && end_ == 0, "extend before start");
    const Addr new_end = base_ + count * wordBytes;
    panic_if(new_end < end_, "root region cannot shrink");
    end_ = new_end;
}

bool
RootReader::done() const
{
    return cursor_ >= end_ && inFlight_ == 0 && pending_.empty();
}

void
RootReader::onResponse(const mem::MemResponse &resp, Tick now)
{
    pokeWakeup();
    (void)now;
    panic_if(inFlight_ == 0, "root reader in-flight underflow");
    --inFlight_;
    for (unsigned i = 0; i < resp.req.words(); ++i) {
        if (resp.rdata[i] != 0) {
            pending_.push_back(resp.rdata[i]);
        }
    }
    noteDone(now);
}

void
RootReader::tick(Tick now)
{
    // Feed buffered roots into the mark queue.
    unsigned moved = 0;
    while (moved < 4 && !pending_.empty() && markQueue_.canEnqueue()) {
        markQueue_.enqueue(pending_.front());
        pending_.pop_front();
        ++rootsRead_;
        ++moved;
    }
    noteDone(now);

    if (cursor_ >= end_ || pending_.size() >= 64) {
        return;
    }

    // Translate the current page (blocking, via the shared PTW).
    const std::optional<Addr> pa = translator_.translate(cursor_, now);
    if (!pa) {
        return;
    }

    const unsigned size =
        Tracer::nextTransferSize(cursor_, end_ - cursor_);
    mem::MemRequest req;
    req.paddr = *pa;
    req.size = size;
    req.op = mem::Op::Read;
    if (!port_->canSend()) {
        return;
    }
    port_->send(req, now);
    ++inFlight_;
    cursor_ += size;
}

Tick
RootReader::nextWakeup(Tick now) const
{
    if (!pending_.empty()) {
        return now; // Feed attempt every cycle.
    }
    if (cursor_ < end_) {
        // pending_ is empty here, so the 64-entry gate is open.
        return translator_.walkPending() ? maxTick : now;
    }
    return maxTick; // Only in-flight reads remain (onResponse).
}

CycleClass
RootReader::cycleClass(Tick now) const
{
    (void)now;
    if (done()) {
        return CycleClass::Idle;
    }
    if (!pending_.empty() && markQueue_.canEnqueue()) {
        return CycleClass::Busy; // Feeding roots into the queue.
    }
    if (cursor_ < end_ && pending_.size() < 64) {
        if (translator_.walkPending()) {
            return CycleClass::StallPtw;
        }
        // Issuing (or launching a walk); the TLB itself is not
        // probed here — lookup() updates LRU/stat state and the
        // classifier must stay purely observational.
        return port_->canSend() ? CycleClass::Busy
                                : CycleClass::StallBus;
    }
    if (!pending_.empty()) {
        return CycleClass::StallDownstreamFull; // Mark queue full.
    }
    if (translator_.walkPending()) {
        return CycleClass::StallPtw;
    }
    return CycleClass::StallDram; // Root-line reads in flight.
}

void
RootReader::serialize(checkpoint::Archive &ar)
{
    ar(base_, cursor_, end_, inFlight_, pending_, doneAt_, stats_,
       translator_);
}

void
RootReader::reset()
{
    panic_if(!done(), "root reader reset while active");
    translator_.flush();
    base_ = cursor_ = end_ = 0;
    doneAt_ = 0;
}

} // namespace hwgc::core
