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
    // Per-elapsed-cycle counter, token accrual and starved grants.
    hasFastForward_ = true;
    fatal_if(!TokenBucket::validRate(params_.throttleBytesPerCycle),
             "bus '%s': throttleBytesPerCycle %g is not a bandwidth "
             "(want 0 or a finite rate of at least 2^-32 bytes/cycle)",
             this->name().c_str(), params_.throttleBytesPerCycle);
    throttle_.setRate(params_.throttleBytesPerCycle);
    downstream_.setResponder(this);
}

unsigned
Interconnect::registerClient(MemResponder *responder, std::string label)
{
    Port port;
    port.responder = responder;
    port.label = std::move(label);
    ports_.push_back(std::move(port));
    portRequests_.emplace_back(stats_, "requests::" + ports_.back().label);
    portBytes_.emplace_back(stats_, "bytes::" + ports_.back().label);
    clientGroup_.push_back(noGroup);
    return unsigned(ports_.size() - 1);
}

void
Interconnect::setClientGroup(unsigned client, unsigned group)
{
    panic_if(client >= ports_.size(), "unknown client %u", client);
    pokeWakeup(); // The client's grant cycle moves with its bucket.
    clientGroup_[client] = group;
    if (group != noGroup && group >= groups_.size()) {
        groups_.resize(group + 1);
    }
}

void
Interconnect::setGroupThrottle(unsigned group, double bytes_per_cycle)
{
    panic_if(group == noGroup, "cannot budget the noGroup sentinel");
    panic_if(!TokenBucket::validRate(bytes_per_cycle),
             "bus '%s': group %u budget %g is not a bandwidth",
             name().c_str(), group, bytes_per_cycle);
    pokeWakeup(); // Grant cycles move with the rate.
    if (group >= groups_.size()) {
        groups_.resize(group + 1);
    }
    groups_[group].setRate(bytes_per_cycle);
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
    // spent per granted byte. Per-group pacing buckets (fleet
    // per-tenant budgets) accrue the same way, each against its own
    // rate; a disabled bucket's accrual is a no-op.
    throttle_.accrue(1);
    for (TokenBucket &grp : groups_) {
        grp.accrue(1);
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
        if (throttle_.enabled() && !throttle_.covers(grantCost)) {
            ++throttledGrants_;
            continue; // Out of bandwidth budget this cycle.
        }
        TokenBucket *grp = portGroup(idx);
        if (grp != nullptr && !grp->covers(grantCost)) {
            ++groupThrottledGrants_;
            continue; // Out of tenant budget this cycle.
        }
        if (throttle_.enabled()) {
            throttle_.spend(grantCost);
        }
        if (grp != nullptr) {
            grp->spend(grantCost);
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

bool
Interconnect::paced() const
{
    if (throttle_.enabled()) {
        return true;
    }
    for (const TokenBucket &grp : groups_) {
        if (grp.enabled()) {
            return true;
        }
    }
    return false;
}

Tick
Interconnect::grantDelay(unsigned client) const
{
    // The tick at now + d has made d + 1 accruals when it checks the
    // buckets, so a head needing k accruals is granted k - 1 cycles
    // from now (now itself if it is covered already).
    Tick accruals =
        throttle_.enabled() ? throttle_.accrualsUntil(grantCost) : 0;
    if (const TokenBucket *grp = portGroup(client)) {
        accruals = std::max(accruals, grp->accrualsUntil(grantCost));
    }
    return accruals == maxTick ? maxTick : std::max<Tick>(accruals, 1) - 1;
}

Tick
Interconnect::nextWakeup(Tick now) const
{
    Tick next = maxTick;
    if (!pendingResponses_.empty()) {
        next = pendingResponses_.front().readyAt;
    }
    for (unsigned i = 0; i < unsigned(ports_.size()); ++i) {
        const Port &port = ports_[i];
        if (port.requests.empty()) {
            continue;
        }
        const TimedReq &front = port.requests.front();
        if (front.readyAt > now) {
            next = std::min(next, front.readyAt);
            continue;
        }
        if (!downstream_.canAccept(front.req)) {
            // A ready head the downstream cannot accept is blocked:
            // only a downstream tick can free the in-flight slot it
            // needs, and that tick re-polls this wakeup (the memory
            // is a declared input).
            continue;
        }
        // A token-starved head sleeps until its buckets cover it;
        // fastForward() replays the starved cycles in between.
        const Tick delay = grantDelay(i);
        if (delay == 0) {
            return now;
        }
        if (delay != maxTick) {
            next = std::min(next, delay > maxTick - now ? maxTick
                                                        : now + delay);
        }
    }
    return next;
}

CycleClass
Interconnect::cycleClass(Tick now) const
{
    if (!busy()) {
        return CycleClass::Idle;
    }
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
        if (throttle_.enabled() && !throttle_.covers(grantCost)) {
            // Token-starved grant: the residual-bandwidth budget
            // (§VII) is the limiter, i.e. DRAM bandwidth.
            return CycleClass::StallDram;
        }
        const TokenBucket *grp = portGroup(i);
        if (grp != nullptr && !grp->covers(grantCost)) {
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
    // Skipped cycles tick the cycle counter and, while pacing, accrue
    // tokens and starve every ready head the downstream would take.
    // Replay both in closed form. nextWakeup() woke the bus at the
    // first cycle any head could be granted, so the span holds none.
    cycles_ += to - from;
    if (!paced()) {
        return;
    }
    const Tick span = to - from;
    for (unsigned i = 0; i < unsigned(ports_.size()); ++i) {
        const Port &port = ports_[i];
        if (port.requests.empty()) {
            continue;
        }
        const TimedReq &head = port.requests.front();
        if (head.readyAt >= to || !downstream_.canAccept(head.req)) {
            continue; // Skipped before any bucket is checked.
        }
        // Span cycles [first, span) see this head ready; the global
        // bucket starves a prefix of them and the group bucket must
        // starve the rest.
        const Tick first = head.readyAt > from ? head.readyAt - from : 0;
        const Tick global_short =
            throttle_.enabled() ? throttle_.shortCycles(grantCost, first, span)
                                : 0;
        const Tick rest = span - first - global_short;
        const TokenBucket *grp = portGroup(i);
        panic_if(rest != 0 && (grp == nullptr ||
                               grp->tokensAfter(span) >= grantCost),
                 "bus '%s': skipped cycles [%llu, %llu) would have "
                 "granted client %u", name().c_str(),
                 (unsigned long long)from, (unsigned long long)to, i);
        throttledGrants_ += global_short;
        groupThrottledGrants_ += rest;
    }
    throttle_.accrue(span);
    for (TokenBucket &grp : groups_) {
        grp.accrue(span);
    }
}

void
Interconnect::serialize(checkpoint::Archive &ar)
{
    const std::uint64_t num_ports = ar.count(ports_.size());
    if (ar.loading()) {
        fatal_if(num_ports != ports_.size(),
                 "checkpoint '%s': bus '%s' has %llu clients but this "
                 "configuration has %zu — topologies differ",
                 ar.origin().c_str(), name().c_str(),
                 (unsigned long long)num_ports, ports_.size());
    }
    for (Port &port : ports_) {
        ar(port.requests);
    }
    ar(pendingResponses_, rrNext_);
    // The global bucket's rate is configuration (params_); only its
    // tokens are state.
    std::uint64_t tokens = throttle_.tokens();
    ar(tokens);
    if (ar.loading()) {
        throttle_.restore(throttle_.rate(), tokens);
    }
    // Group budgets are architectural state (the fleet driver programs
    // them per dispatch), so the full mapping travels with the image.
    ar(groups_);
    for (unsigned &g : clientGroup_) {
        ar(g);
    }
    ar(stats_);
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
