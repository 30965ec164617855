/**
 * @file
 * Blocking page-table walker implementation.
 */

#include "ptw.h"

#include <algorithm>

#include "sim/checkpoint.h"

namespace hwgc::mem
{

Ptw::Ptw(std::string name, const PtwParams &params,
         const PageTable &page_table, MemPort *port)
    : Clocked(std::move(name)), params_(params), pageTable_(&page_table),
      port_(port), l2Tlb_(stats_, "l2tlb", params.l2TlbEntries)
{
    panic_if(port_ == nullptr, "PTW needs a memory port");
}

unsigned
Ptw::registerRequester(WalkResponder &responder, std::string label)
{
    ports_.push_back({&responder, std::move(label), {}});
    return unsigned(ports_.size() - 1);
}

bool
Ptw::canRequest(unsigned port) const
{
    return ports_[port].queue.size() < params_.queueDepth;
}

void
Ptw::requestWalk(unsigned port, Addr va, Tick now, std::uint64_t token)
{
    panic_if(!canRequest(port), "PTW '%s' port '%s': queue overflow",
             name().c_str(), ports_[port].label.c_str());
    pokeWakeup(); // The latched walk becomes visible next cycle.
    ports_[port].queue.push_back({va, now + 1, token});
}

void
Ptw::issueLevel(Tick now)
{
    MemRequest req;
    req.paddr = alignDown(walkPlan_.pteAddr[level_], wordBytes);
    req.size = wordBytes;
    req.op = Op::Read;
    req.tag = level_;
    if (port_->canSend()) {
        port_->send(req, now);
        ++pteFetches_;
        awaitingResponse_ = true;
    }
}

void
Ptw::complete(bool valid, Addr pa, unsigned page_bits, Tick ready_at)
{
    completions_.push_back(
        {ready_at, currentPort_,
         {valid, current_.va, pa, page_bits, current_.token}});
}

void
Ptw::onResponse(const MemResponse &resp, Tick now)
{
    pokeWakeup();
    panic_if(!walking_ || !awaitingResponse_,
             "PTW response without a walk in progress");
    panic_if(resp.req.tag != level_, "PTW response level mismatch");
    awaitingResponse_ = false;
    ++level_;
    if (level_ >= walkPlan_.levels) {
        if (walkPlan_.valid) {
            l2Tlb_.insert(current_.va, walkPlan_.pa, walkPlan_.pageBits);
        }
        complete(walkPlan_.valid, walkPlan_.pa, walkPlan_.pageBits,
                 now + 1);
        walking_ = false;
    }
}

void
Ptw::tick(Tick now)
{
    // Deliver due completions.
    while (!completions_.empty() && completions_.front().readyAt <= now) {
        const Completion c = completions_.front();
        completions_.pop_front();
        ports_[c.port].responder->onWalk(c.result, now);
    }

    if (walking_) {
        if (!awaitingResponse_ && level_ < walkPlan_.levels) {
            issueLevel(now); // Retry if the port was full last cycle.
        }
        return;
    }

    // Start at most one queued walk: oldest arrival wins, same-cycle
    // arrivals break by port id.
    unsigned best = ~0u;
    Tick best_at = maxTick;
    for (unsigned i = 0; i < ports_.size(); ++i) {
        const auto &q = ports_[i].queue;
        if (!q.empty() && q.front().arriveAt <= now &&
            q.front().arriveAt < best_at) {
            best = i;
            best_at = q.front().arriveAt;
        }
    }
    if (best == ~0u) {
        return;
    }

    Port &p = ports_[best];
    current_ = std::move(p.queue.front());
    currentPort_ = best;
    p.queue.pop_front();
    if (const auto hit = l2Tlb_.lookupEntry(current_.va)) {
        ++l2Hits_;
        complete(true, hit->first, hit->second,
                 now + params_.l2TlbLatency);
        return;
    }
    ++walks_;
    DPRINTF(now, "PTW", "%s: walk va=%#llx", name().c_str(),
            (unsigned long long)current_.va);
    walkPlan_ = pageTable_->walk(current_.va);
    level_ = 0;
    walking_ = true;
    issueLevel(now);
}

bool
Ptw::anyQueued() const
{
    for (const auto &pp : ports_) {
        if (!pp.queue.empty()) {
            return true;
        }
    }
    return false;
}

bool
Ptw::busy() const
{
    return walking_ || !completions_.empty() || anyQueued();
}

Tick
Ptw::nextWakeup(Tick now) const
{
    Tick next = maxTick;
    if (!completions_.empty()) {
        next = completions_.front().readyAt;
    }
    if (walking_) {
        if (!awaitingResponse_ && level_ < walkPlan_.levels) {
            return now; // Port-full retry of the current level.
        }
        return next; // Waiting on a PTE fetch response.
    }
    for (const auto &pp : ports_) {
        if (!pp.queue.empty()) {
            next = std::min(next,
                            std::max(pp.queue.front().arriveAt, now));
        }
    }
    return next;
}

CycleClass
Ptw::cycleClass(Tick now) const
{
    (void)now;
    if (!busy()) {
        return CycleClass::Idle;
    }
    if (walking_) {
        if (awaitingResponse_) {
            return CycleClass::StallDram; // PTE fetch in flight.
        }
        if (level_ < walkPlan_.levels) {
            return port_->canSend() ? CycleClass::Busy
                                    : CycleClass::StallBus;
        }
    }
    // Latching or starting a queued walk, or delivering completions
    // after their modeled latency: the walker itself is doing the
    // work.
    return CycleClass::Busy;
}

void
Ptw::setPageTable(const PageTable &page_table)
{
    panic_if(walking_ || anyQueued() || !completions_.empty(),
             "ptw retargeted with a walk in flight");
    pageTable_ = &page_table;
}

void
Ptw::serialize(checkpoint::Archive &ar)
{
    const std::uint64_t num_ports = ar.count(ports_.size());
    if (ar.loading()) {
        fatal_if(num_ports != ports_.size(),
                 "checkpoint '%s': PTW '%s' has %zu requester ports, "
                 "checkpoint has %llu",
                 ar.origin().c_str(), name().c_str(), ports_.size(),
                 (unsigned long long)num_ports);
    }
    for (Port &pp : ports_) {
        std::string label = pp.label;
        ar(label, pp.queue);
        if (ar.loading()) {
            fatal_if(label != pp.label,
                     "checkpoint '%s': PTW '%s' port label mismatch "
                     "('%s' vs '%s')",
                     ar.origin().c_str(), name().c_str(), label.c_str(),
                     pp.label.c_str());
        }
    }
    ar(completions_);
    if (ar.loading()) {
        for (const Completion &c : completions_) {
            fatal_if(c.port >= ports_.size(),
                     "checkpoint '%s': PTW '%s' completion references "
                     "port %u of %zu",
                     ar.origin().c_str(), name().c_str(), c.port,
                     ports_.size());
        }
    }
    ar(walking_, awaitingResponse_);
    if (ar.loading()) {
        current_ = {};
        currentPort_ = 0;
        walkPlan_ = {};
        level_ = 0;
    }
    if (walking_) {
        ar(current_.va, currentPort_, current_.token);
        if (ar.loading()) {
            fatal_if(currentPort_ >= ports_.size(),
                     "checkpoint '%s': PTW '%s' current walk references "
                     "port %u of %zu",
                     ar.origin().c_str(), name().c_str(), currentPort_,
                     ports_.size());
        }
        ar(walkPlan_.valid, walkPlan_.pa, walkPlan_.pteAddr,
           walkPlan_.levels, walkPlan_.pageBits, level_);
    }
    ar(stats_, l2Tlb_);
}

} // namespace hwgc::mem
