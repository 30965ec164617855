/**
 * @file
 * Timed multi-ported cache implementation.
 */

#include "timed_cache.h"

namespace hwgc::mem
{

namespace
{
/** Downstream tag marking a write-back (vs. an MSHR line fill). */
constexpr std::uint64_t writebackTag = ~0ULL;
} // namespace

/** One upstream port: a bounded request queue plus its responder. */
struct TimedCache::UpstreamPort : public MemPort
{
    UpstreamPort(TimedCache &owner, unsigned index,
                 MemResponder *responder, std::string label)
        : owner_(owner), index_(index), responder_(responder),
          label_(std::move(label))
    {
    }

    bool
    canSend() const override
    {
        return queue.size() < owner_.params_.portQueueDepth;
    }

    void
    send(MemRequest req, Tick now) override
    {
        panic_if(!canSend(), "cache port '%s' overflow",
                 label_.c_str());
        panic_if(!validTransfer(req.paddr, req.size),
                 "cache port '%s': invalid transfer", label_.c_str());
        (void)now;
        owner_.pokeWakeup(); // A queued request needs a service tick.
        queue.push_back(req);
        ++requests;
    }

    void
    bind(MemResponder *responder, const Clocked *owner) override
    {
        responder_ = responder;
        wakeOwner_ = owner;
    }

    TimedCache &owner_;
    unsigned index_;
    MemResponder *responder_;
    const Clocked *wakeOwner_ = nullptr;
    std::string label_;
    std::deque<MemRequest> queue;
    /** Declared into the cache's group, after its own counters. */
    stats::Scalar requests{owner_.stats_, "requests::" + label_};

    void serialize(checkpoint::Archive &ar) { ar(queue); }
};

TimedCache::TimedCache(std::string name, const TimedCacheParams &params,
                       PhysMem &mem, Interconnect &bus)
    : Clocked(std::move(name)), params_(params), mem_(mem),
      tags_(params.sizeBytes, params.assoc),
      fillPort_(std::make_unique<BusPort>(bus, this,
                                          this->name() + ".fill")),
      mshrs_(params.mshrs)
{
}

TimedCache::~TimedCache() = default;

MemPort *
TimedCache::addPort(MemResponder *responder, std::string label)
{
    ports_.push_back(std::make_unique<UpstreamPort>(
        *this, unsigned(ports_.size()), responder, std::move(label)));
    return ports_.back().get();
}

void
TimedCache::complete(const MemRequest &req, unsigned port, Tick now)
{
    MemResponse resp;
    resp.req = req;
    resp.completed = now;
    mem_.execute(req, resp.rdata);
    dueResponses_.push_back({resp, port, now + params_.hitLatency});
}

void
TimedCache::installLine(Addr line_addr)
{
    const CacheTags::Victim victim = tags_.insert(line_addr);
    if (victim.valid && victim.dirty) {
        panic_if(writebackQueue_.size() >= params_.writebackDepth,
                 "write-back buffer overflow");
        writebackQueue_.push_back(victim.lineAddr);
        ++writebacks_;
    }
}

void
TimedCache::onResponse(const MemResponse &resp, Tick now)
{
    pokeWakeup();
    if (resp.req.tag == writebackTag) {
        panic_if(outstandingWritebacks_ == 0, "writeback underflow");
        --outstandingWritebacks_;
        return;
    }
    panic_if(resp.req.tag >= mshrs_.size(), "bad MSHR tag");
    Mshr &mshr = mshrs_[resp.req.tag];
    panic_if(!mshr.valid, "fill for invalid MSHR");
    installLine(mshr.lineAddr);
    for (const auto &[port, req] : mshr.targets) {
        if (req.isWrite() || req.op == Op::FetchOr) {
            tags_.markDirty(req.paddr);
        }
        complete(req, port, now);
    }
    mshr.valid = false;
    mshr.targets.clear();
}

void
TimedCache::tick(Tick now)
{
    // Deliver due upstream responses.
    while (!dueResponses_.empty() &&
           dueResponses_.front().readyAt <= now) {
        const DueResponse due = dueResponses_.front();
        dueResponses_.pop_front();
        MemResponder *r = ports_[due.port]->responder_;
        if (r != nullptr) {
            r->onResponse(due.resp, now);
        }
    }

    // Drain one write-back if the downstream port has room.
    if (!writebackQueue_.empty()) {
        MemRequest wb;
        wb.paddr = writebackQueue_.front();
        wb.size = lineBytes;
        wb.op = Op::Write;
        wb.tag = writebackTag;
        wb.timingOnly = true;
        if (fillPort_->canSend()) {
            fillPort_->send(wb, now);
            writebackQueue_.pop_front();
            ++outstandingWritebacks_;
        }
    }

    // One lookup per cycle, round-robin across upstream ports.
    const unsigned n = unsigned(ports_.size());
    for (unsigned i = 0; i < n; ++i) {
        const unsigned idx = (rrNext_ + i) % n;
        UpstreamPort &port = *ports_[idx];
        if (port.queue.empty()) {
            continue;
        }
        const MemRequest req = port.queue.front();
        const Addr line = alignDown(req.paddr, lineBytes);

        if (tags_.access(req.paddr)) {
            ++hits_;
            if (req.isWrite() || req.op == Op::FetchOr) {
                tags_.markDirty(req.paddr);
            }
            complete(req, idx, now);
            port.queue.pop_front();
            if (port.wakeOwner_ != nullptr) {
                pokeWakeup(*port.wakeOwner_); // canSend() just rose.
            }
            rrNext_ = (idx + 1) % n;
            break;
        }

        // Miss: merge into an existing MSHR for this line if any.
        Mshr *match = nullptr;
        Mshr *free_slot = nullptr;
        for (auto &m : mshrs_) {
            if (m.valid && m.lineAddr == line) {
                match = &m;
                break;
            }
            if (!m.valid && free_slot == nullptr) {
                free_slot = &m;
            }
        }
        if (match != nullptr) {
            match->targets.emplace_back(idx, req);
            port.queue.pop_front();
            if (port.wakeOwner_ != nullptr) {
                pokeWakeup(*port.wakeOwner_); // canSend() just rose.
            }
            rrNext_ = (idx + 1) % n;
            break;
        }
        if (free_slot == nullptr) {
            continue; // All MSHRs busy: this port stalls.
        }
        MemRequest fill;
        fill.paddr = line;
        fill.size = lineBytes;
        fill.op = Op::Read;
        fill.tag = std::uint64_t(free_slot - mshrs_.data());
        fill.timingOnly = true;
        if (!fillPort_->canSend()) {
            continue; // Downstream full: stall.
        }
        ++misses_;
        free_slot->valid = true;
        free_slot->lineAddr = line;
        free_slot->targets.emplace_back(idx, req);
        fillPort_->send(fill, now);
        port.queue.pop_front();
        if (port.wakeOwner_ != nullptr) {
            pokeWakeup(*port.wakeOwner_); // canSend() just rose.
        }
        rrNext_ = (idx + 1) % n;
        break;
    }
}

Tick
TimedCache::nextWakeup(Tick now) const
{
    // Queued lookups and write-back drains retry every cycle (they
    // may be stalled on MSHRs or downstream room, which only a tick
    // can re-check).
    if (!writebackQueue_.empty()) {
        return now;
    }
    for (const auto &p : ports_) {
        if (!p->queue.empty()) {
            return now;
        }
    }
    if (!dueResponses_.empty()) {
        return dueResponses_.front().readyAt;
    }
    // Only in-flight fills/write-backs remain; progress arrives via
    // onResponse() and is picked up on the following re-poll.
    return maxTick;
}

bool
TimedCache::busy() const
{
    if (!dueResponses_.empty() || !writebackQueue_.empty() ||
        outstandingWritebacks_ != 0) {
        return true;
    }
    for (const auto &m : mshrs_) {
        if (m.valid) {
            return true;
        }
    }
    for (const auto &p : ports_) {
        if (!p->queue.empty()) {
            return true;
        }
    }
    return false;
}

CycleClass
TimedCache::cycleClass(Tick now) const
{
    (void)now;
    if (!busy()) {
        return CycleClass::Idle;
    }
    bool queued = !writebackQueue_.empty();
    for (const auto &p : ports_) {
        if (!p->queue.empty()) {
            queued = true;
            break;
        }
    }
    if (queued) {
        // Whether the head would hit cannot be probed here —
        // tags_.access() updates recency state — so queued work is
        // classified by what could block a miss.
        bool mshr_free = false;
        for (const auto &m : mshrs_) {
            if (!m.valid) {
                mshr_free = true;
                break;
            }
        }
        if (!mshr_free) {
            return CycleClass::StallDram; // Every MSHR awaits a fill.
        }
        return fillPort_->canSend() ? CycleClass::Busy
                                    : CycleClass::StallBus;
    }
    if (!dueResponses_.empty()) {
        return CycleClass::Busy; // Hit-latency pipeline delivering.
    }
    return CycleClass::StallDram; // Only fills/write-backs in flight.
}

void
TimedCache::serialize(checkpoint::Archive &ar)
{
    ar(tags_);
    const std::uint64_t num_ports = ar.count(ports_.size());
    if (ar.loading()) {
        fatal_if(num_ports != ports_.size(),
                 "checkpoint '%s': cache '%s' has %llu ports but this "
                 "configuration has %zu — topologies differ",
                 ar.origin().c_str(), name().c_str(),
                 (unsigned long long)num_ports, ports_.size());
    }
    for (auto &p : ports_) {
        ar(*p);
    }
    const std::uint64_t num_mshrs = ar.count(mshrs_.size());
    if (ar.loading()) {
        fatal_if(num_mshrs != mshrs_.size(),
                 "checkpoint '%s': cache '%s' has %llu MSHRs but this "
                 "configuration has %zu — configurations differ",
                 ar.origin().c_str(), name().c_str(),
                 (unsigned long long)num_mshrs, mshrs_.size());
    }
    for (Mshr &m : mshrs_) {
        ar(m);
    }
    ar(writebackQueue_, dueResponses_, rrNext_, outstandingWritebacks_,
       stats_);
}

std::uint64_t
TimedCache::portRequests(unsigned port) const
{
    return ports_.at(port)->requests.value();
}

const std::string &
TimedCache::portLabel(unsigned port) const
{
    return ports_.at(port)->label_;
}

} // namespace hwgc::mem
