/**
 * @file
 * Round-robin interconnect implementation.
 */

#include "interconnect.h"

#include <algorithm>

namespace hwgc::mem
{

Interconnect::Interconnect(std::string name,
                           const InterconnectParams &params,
                           MemDevice &downstream)
    : Clocked(std::move(name)), params_(params), downstream_(downstream)
{
    hasFastForward_ = true; // Per-elapsed-cycle counter and tokens.
    downstream_.setResponder(this);
}

unsigned
Interconnect::registerClient(MemResponder *responder, std::string label)
{
    Port port;
    port.responder = responder;
    port.label = std::move(label);
    ports_.push_back(std::move(port));
    portRequests_.emplace_back("requests::" + ports_.back().label);
    portBytes_.emplace_back("bytes::" + ports_.back().label);
    clientGroup_.push_back(noGroup);
    return unsigned(ports_.size() - 1);
}

void
Interconnect::setClientGroup(unsigned client, unsigned group)
{
    panic_if(client >= ports_.size(), "unknown client %u", client);
    clientGroup_[client] = group;
    if (group != noGroup && group >= groups_.size()) {
        groups_.resize(group + 1);
    }
}

void
Interconnect::setGroupThrottle(unsigned group, double bytes_per_cycle)
{
    panic_if(group == noGroup, "cannot budget the noGroup sentinel");
    if (group >= groups_.size()) {
        groups_.resize(group + 1);
    }
    groups_[group].rate = bytes_per_cycle;
}

void
Interconnect::setClientResponder(unsigned client, MemResponder *responder)
{
    panic_if(client >= ports_.size(), "unknown client %u", client);
    ports_[client].responder = responder;
}

void
Interconnect::setClientOwner(unsigned client, const Clocked *owner)
{
    panic_if(client >= ports_.size(), "unknown client %u", client);
    ports_[client].owner = owner;
}

bool
Interconnect::canAccept(unsigned client) const
{
    panic_if(client >= ports_.size(), "unknown client %u", client);
    return ports_[client].requests.size() < params_.clientQueueDepth;
}

void
Interconnect::sendRequest(const MemRequest &req, Tick now)
{
    pokeWakeup(); // A queued request is granted on a later cycle.
    panic_if(req.client >= ports_.size(), "unknown client %u",
             req.client);
    panic_if(!canAccept(req.client), "client %u queue overflow",
             req.client);
    panic_if(!validTransfer(req.paddr, req.size),
             "client %u: invalid transfer addr=%#llx size=%u", req.client,
             (unsigned long long)req.paddr, req.size);
    Port &port = ports_[req.client];
    port.requests.push_back({req, now + params_.requestLatency});
    ++portRequests_[req.client];
    portBytes_[req.client] += req.size;
    DPRINTF(now, "Bus", "%s: req client=%u %s addr=%#llx size=%u",
            name().c_str(), req.client,
            req.isWrite() ? "write" : "read",
            (unsigned long long)req.paddr, req.size);
}

void
Interconnect::onResponse(const MemResponse &resp, Tick now)
{
    pokeWakeup();
    pendingResponses_.push_back({resp, now + params_.responseLatency});
}

void
Interconnect::tick(Tick now)
{
    ++cycles_;
    bool moved = false;

    // Token-bucket throttle (§VII): tokens accrue per cycle and are
    // spent per granted byte; the bucket is capped at a couple of
    // line transfers so idle periods cannot bank unbounded bursts.
    if (params_.throttleBytesPerCycle > 0.0) {
        throttleTokens_ = std::min(
            throttleTokens_ + params_.throttleBytesPerCycle,
            4.0 * double(lineBytes));
    }
    // Per-group pacing buckets (fleet per-tenant budgets) accrue the
    // same way, each against its own rate.
    for (BudgetGroup &grp : groups_) {
        if (grp.rate > 0.0) {
            grp.tokens = std::min(grp.tokens + grp.rate,
                                  4.0 * double(lineBytes));
        }
    }

    // Round-robin grant of up to grantsPerCycle requests.
    unsigned granted = 0;
    const unsigned n = unsigned(ports_.size());
    for (unsigned i = 0; i < n && granted < params_.grantsPerCycle; ++i) {
        const unsigned idx = (rrNext_ + i) % n;
        Port &port = ports_[idx];
        if (port.requests.empty() ||
            port.requests.front().readyAt > now) {
            continue;
        }
        const MemRequest &req = port.requests.front().req;
        if (!downstream_.canAccept(req)) {
            continue;
        }
        // Budget real DRAM bandwidth: a sub-line request still costs
        // the DRAM a full BL8 burst, so charge line granularity.
        const double cost =
            double(std::max<unsigned>(req.size, lineBytes));
        if (params_.throttleBytesPerCycle > 0.0 &&
            throttleTokens_ < cost) {
            ++throttledGrants_;
            continue; // Out of bandwidth budget this cycle.
        }
        BudgetGroup *grp = portGroup(idx);
        if (grp != nullptr && grp->tokens < cost) {
            ++groupThrottledGrants_;
            continue; // Out of tenant budget this cycle.
        }
        if (params_.throttleBytesPerCycle > 0.0) {
            throttleTokens_ -= cost;
        }
        if (grp != nullptr) {
            grp->tokens -= cost;
        }
        downstream_.sendRequest(req, now);
        port.requests.pop_front();
        if (port.owner != nullptr) {
            pokeWakeup(*port.owner); // canAccept() just rose.
        }
        ++granted;
        moved = true;
        rrNext_ = (idx + 1) % n;
    }

    // Deliver due responses (in arrival order).
    while (!pendingResponses_.empty() &&
           pendingResponses_.front().readyAt <= now) {
        const MemResponse resp = pendingResponses_.front().resp;
        pendingResponses_.pop_front();
        Port &port = ports_[resp.req.client];
        if (port.responder != nullptr) {
            port.responder->onResponse(resp, now);
        }
        moved = true;
    }

    if (moved) {
        ++busBusy_;
    }
}

Tick
Interconnect::nextWakeup(Tick now) const
{
    const bool throttling = params_.throttleBytesPerCycle > 0.0;
    if (throttling && throttleTokens_ < 4.0 * double(lineBytes)) {
        // Token accrual must replay cycle by cycle until the bucket
        // saturates at its cap, or the floating-point sum would not
        // stay bit-identical to the dense kernel's.
        return now;
    }
    bool pacing = throttling;
    for (const BudgetGroup &grp : groups_) {
        if (grp.rate <= 0.0) {
            continue;
        }
        pacing = true;
        if (grp.tokens < 4.0 * double(lineBytes)) {
            return now; // Same cycle-exact accrual as the global bucket.
        }
    }
    Tick next = maxTick;
    if (!pendingResponses_.empty()) {
        next = std::min(next, pendingResponses_.front().readyAt);
    }
    for (const auto &port : ports_) {
        if (port.requests.empty()) {
            continue;
        }
        if (pacing) {
            return now; // Grants spend tokens every cycle.
        }
        const auto &front = port.requests.front();
        if (front.readyAt > now) {
            next = std::min(next, front.readyAt);
        } else if (downstream_.canAccept(front.req)) {
            return now;
        }
        // A ready head the downstream cannot accept is blocked: only
        // a downstream tick can free the in-flight slot it needs, and
        // the kernel re-polls all wakeups after every executed cycle,
        // so the blocked port contributes no wakeup of its own.
    }
    return next;
}

CycleClass
Interconnect::cycleClass(Tick now) const
{
    if (!busy()) {
        return CycleClass::Idle;
    }
    const bool throttling = params_.throttleBytesPerCycle > 0.0;
    for (unsigned i = 0; i < unsigned(ports_.size()); ++i) {
        const auto &port = ports_[i];
        if (port.requests.empty()) {
            continue;
        }
        const auto &front = port.requests.front();
        if (front.readyAt > now) {
            continue; // Still traversing the request-latency hops.
        }
        if (!downstream_.canAccept(front.req)) {
            // A ready head the memory device cannot take: the bus is
            // backpressured by DRAM occupancy, the paper's dominant
            // stall under bandwidth pressure (Fig 16).
            return CycleClass::StallDram;
        }
        const double cost =
            double(std::max<unsigned>(front.req.size, lineBytes));
        if (throttling && throttleTokens_ < cost) {
            // Token-starved grant: the residual-bandwidth budget
            // (§VII) is the limiter, i.e. DRAM bandwidth.
            return CycleClass::StallDram;
        }
        const BudgetGroup *grp = portGroup(i);
        if (grp != nullptr && grp->tokens < cost) {
            // Starved by the tenant's pacing budget instead of the
            // global one — still a bandwidth limit.
            return CycleClass::StallDram;
        }
    }
    return CycleClass::Busy; // Traffic moving through the hops.
}

void
Interconnect::fastForward(Tick from, Tick to)
{
    // Cycles elapse (and throttle tokens accrue) even on cycles the
    // kernel did not tick us; nextWakeup() guarantees the bucket is
    // already at its cap whenever that happens, so the clamped
    // accrual below is exact.
    cycles_ += to - from;
    if (params_.throttleBytesPerCycle > 0.0) {
        throttleTokens_ = std::min(
            throttleTokens_ +
                double(to - from) * params_.throttleBytesPerCycle,
            4.0 * double(lineBytes));
    }
    for (BudgetGroup &grp : groups_) {
        if (grp.rate > 0.0) {
            grp.tokens = std::min(grp.tokens + double(to - from) * grp.rate,
                                  4.0 * double(lineBytes));
        }
    }
}

void
Interconnect::save(checkpoint::Serializer &ser) const
{
    ser.putU64(ports_.size());
    for (const auto &port : ports_) {
        ser.putU64(port.requests.size());
        for (const auto &tr : port.requests) {
            saveRequest(ser, tr.req);
            ser.putU64(tr.readyAt);
        }
    }
    ser.putU64(pendingResponses_.size());
    for (const auto &tr : pendingResponses_) {
        saveResponse(ser, tr.resp);
        ser.putU64(tr.readyAt);
    }
    ser.putU64(rrNext_);
    ser.putDouble(throttleTokens_);
    // Group budgets are architectural state (the fleet driver programs
    // them per dispatch), so the full mapping travels with the image.
    ser.putU64(groups_.size());
    for (const BudgetGroup &grp : groups_) {
        ser.putDouble(grp.rate);
        ser.putDouble(grp.tokens);
    }
    for (const unsigned g : clientGroup_) {
        ser.putU64(g);
    }
    for (const auto &s : portRequests_) {
        checkpoint::putStat(ser, s);
    }
    for (const auto &s : portBytes_) {
        checkpoint::putStat(ser, s);
    }
    checkpoint::putStat(ser, throttledGrants_);
    checkpoint::putStat(ser, groupThrottledGrants_);
    checkpoint::putStat(ser, busBusy_);
    checkpoint::putStat(ser, cycles_);
}

void
Interconnect::restore(checkpoint::Deserializer &des)
{
    const std::uint64_t num_ports = des.getU64();
    fatal_if(num_ports != ports_.size(),
             "checkpoint '%s': bus '%s' has %llu clients but this "
             "configuration has %zu — topologies differ",
             des.origin().c_str(), name().c_str(),
             (unsigned long long)num_ports, ports_.size());
    for (auto &port : ports_) {
        port.requests.clear();
        const std::uint64_t depth = des.getU64();
        for (std::uint64_t i = 0; i < depth; ++i) {
            TimedReq tr;
            tr.req = restoreRequest(des);
            tr.readyAt = des.getU64();
            port.requests.push_back(tr);
        }
    }
    pendingResponses_.clear();
    const std::uint64_t num_resp = des.getU64();
    for (std::uint64_t i = 0; i < num_resp; ++i) {
        TimedResp tr;
        tr.resp = restoreResponse(des);
        tr.readyAt = des.getU64();
        pendingResponses_.push_back(tr);
    }
    rrNext_ = unsigned(des.getU64());
    throttleTokens_ = des.getDouble();
    groups_.assign(std::size_t(des.getU64()), BudgetGroup{});
    for (BudgetGroup &grp : groups_) {
        grp.rate = des.getDouble();
        grp.tokens = des.getDouble();
    }
    for (unsigned &g : clientGroup_) {
        g = unsigned(des.getU64());
    }
    for (auto &s : portRequests_) {
        checkpoint::getStat(des, s);
    }
    for (auto &s : portBytes_) {
        checkpoint::getStat(des, s);
    }
    checkpoint::getStat(des, throttledGrants_);
    checkpoint::getStat(des, groupThrottledGrants_);
    checkpoint::getStat(des, busBusy_);
    checkpoint::getStat(des, cycles_);
}

bool
Interconnect::busy() const
{
    if (!pendingResponses_.empty()) {
        return true;
    }
    for (const auto &port : ports_) {
        if (!port.requests.empty()) {
            return true;
        }
    }
    return false;
}

void
Interconnect::resetStats()
{
    for (auto &s : portRequests_) {
        s.reset();
    }
    for (auto &s : portBytes_) {
        s.reset();
    }
    busBusy_.reset();
    cycles_.reset();
}

void
Interconnect::addStats(stats::Group &g) const
{
    g.add(&busBusy_);
    g.add(&cycles_);
    g.add(&throttledGrants_);
    g.add(&groupThrottledGrants_);
    for (const auto &s : portRequests_) {
        g.add(&s);
    }
    for (const auto &s : portBytes_) {
        g.add(&s);
    }
}

std::uint64_t
Interconnect::clientRequests(unsigned client) const
{
    panic_if(client >= portRequests_.size(), "unknown client %u",
             client);
    return portRequests_[client].value();
}

std::uint64_t
Interconnect::clientBytes(unsigned client) const
{
    panic_if(client >= portBytes_.size(), "unknown client %u", client);
    return portBytes_[client].value();
}

const std::string &
Interconnect::clientLabel(unsigned client) const
{
    return ports_.at(client).label;
}

} // namespace hwgc::mem
