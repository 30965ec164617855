/**
 * @file
 * The TileLink-like on-chip interconnect (system bus).
 *
 * Clients register a response receiver and get back a client id; the
 * bus round-robin arbitrates per-client request queues into the
 * downstream memory device and routes responses back by client id.
 * The paper instruments exactly this port ("our TileLink port is busy
 * 88% of all mark cycles"), so the bus keeps utilization statistics
 * and per-client request/byte counters (Fig 18b).
 */

#ifndef HWGC_MEM_INTERCONNECT_H
#define HWGC_MEM_INTERCONNECT_H

#include <deque>
#include <string>
#include <vector>

#include "mem/mem_device.h"
#include "mem/token_bucket.h"
#include "sim/stats.h"

namespace hwgc::mem
{

/** Interconnect configuration. */
struct InterconnectParams
{
    unsigned clientQueueDepth = 4;  //!< Requests buffered per client.
    unsigned grantsPerCycle = 1;    //!< Channel beats per cycle.
    Tick requestLatency = 6;        //!< Client -> memory hops.
    Tick responseLatency = 6;       //!< Memory -> client hops.

    /**
     * Bandwidth throttle (paper §VII "Bandwidth Throttling"): caps
     * the data granted through this bus to the given bytes/cycle via
     * a token bucket, so a GC unit "only use[s] residual bandwidth"
     * instead of interfering with the application. 0 disables; the
     * rate rounds to the bucket's 2^-32-byte step, and a negative,
     * non-finite or below-one-step rate is rejected at construction.
     */
    double throttleBytesPerCycle = 0.0;
};

/** Round-robin arbitrated system bus in front of one memory device. */
class Interconnect : public Clocked, public MemResponder
{
  public:
    Interconnect(std::string name, const InterconnectParams &params,
                 MemDevice &downstream);

    /**
     * Registers a client port.
     * @param responder Receiver of this client's responses (may be
     *        nullptr for write-only producers that ignore acks).
     * @param label Stable label used in per-client statistics.
     * @return The client id to place into MemRequest::client.
     */
    unsigned registerClient(MemResponder *responder, std::string label);

    /** Rewires a client's responder (breaks construction cycles). */
    void setClientResponder(unsigned client, MemResponder *responder);

    /**
     * Registers the component whose nextWakeup() polls this client's
     * canAccept(); its cached wakeup is poked when a grant frees a
     * slot in the client's queue (the only event that raises it).
     */
    void setClientOwner(unsigned client, const Clocked *owner);

    /**
     * @name Per-group pacing budgets (fleet mode, §VII extended)
     *
     * The global throttle caps everything moving through the bus; a
     * fleet additionally paces each *tenant* with its own token
     * bucket so one device's GC only uses the bandwidth budget its
     * tenant paid for. Clients are mapped into budget groups (all of
     * one device's ports -> the running tenant's group) and each
     * group with a nonzero rate accrues and spends tokens exactly
     * like the global bucket (mem::TokenBucket): accrual capped at
     * four line transfers, grants charged at line granularity, starved
     * grants counted and classed as DRAM stalls. Both buckets must
     * pass for a grant. noGroup (the default) exempts a client from
     * group pacing.
     * @{
     */
    static constexpr unsigned noGroup = ~0u;

    /** Assigns @p client to budget group @p group (or noGroup). */
    void setClientGroup(unsigned client, unsigned group);

    /** Sets group @p group's budget in bytes/cycle (0 = unpaced);
     *  the rate must pass TokenBucket::validRate(). */
    void setGroupThrottle(unsigned group, double bytes_per_cycle);

    std::uint64_t groupThrottledGrants() const
    {
        return groupThrottledGrants_.value();
    }
    /** @} */

    /** True if client @p client can enqueue one more request. */
    bool canAccept(unsigned client) const;

    /** Enqueues a request from its client port. */
    void sendRequest(const MemRequest &req, Tick now);

    // MemResponder interface (responses arriving from the device).
    void onResponse(const MemResponse &resp, Tick now) override;

    // Clocked interface.
    void tick(Tick now) override;
    bool busy() const override;
    Tick nextWakeup(Tick now) const override;
    CycleClass cycleClass(Tick now) const override;
    void fastForward(Tick from, Tick to) override;
    void serialize(checkpoint::Archive &ar) override;

    /** @name Statistics @{ */
    std::uint64_t clientRequests(unsigned client) const;
    std::uint64_t clientBytes(unsigned client) const;
    const std::string &clientLabel(unsigned client) const;
    unsigned numClients() const { return unsigned(ports_.size()); }
    std::uint64_t busBusyCycles() const { return busBusy_.value(); }
    std::uint64_t observedCycles() const { return cycles_.value(); }
    std::uint64_t throttledGrants() const
    {
        return throttledGrants_.value();
    }
    /** The global throttle's bucket (disabled when unthrottled). */
    const TokenBucket &throttleBucket() const { return throttle_; }
    /** @} */

  private:
    /** The bucket cost of any grant: a transfer is at most one line,
     *  and a sub-line request still costs the DRAM a full BL8 burst,
     *  so grants are charged at line granularity. */
    static constexpr std::uint64_t grantCost = TokenBucket::steps(lineBytes);

    /** Whether the global bucket or any group bucket is pacing. */
    bool paced() const;

    /** Cycles from now until both of @p client's buckets first cover
     *  a grant (0: now; maxTick: never). */
    Tick grantDelay(unsigned client) const;

    struct TimedReq
    {
        MemRequest req;
        Tick readyAt = 0;

        void serialize(checkpoint::Archive &ar) { ar(req, readyAt); }
    };

    struct TimedResp
    {
        MemResponse resp;
        Tick readyAt = 0;

        void serialize(checkpoint::Archive &ar) { ar(resp, readyAt); }
    };

    struct Port
    {
        MemResponder *responder = nullptr;
        const Clocked *owner = nullptr;
        std::string label;
        std::deque<TimedReq> requests;
    };

    InterconnectParams params_;
    MemDevice &downstream_;
    std::vector<Port> ports_;

    /** Per-client request/byte counters, declared into stats_ as
     *  clients register; a deque keeps their addresses stable. */
    std::deque<stats::Scalar> portRequests_;
    std::deque<stats::Scalar> portBytes_;
    std::deque<TimedResp> pendingResponses_;
    unsigned rrNext_ = 0;
    TokenBucket throttle_; //!< The global bucket (rate from params_).

    /** @name Per-group pacing state (see setClientGroup) @{ */

    /** The bucket a port's grants are charged to (nullptr = none). */
    const TokenBucket *portGroup(unsigned client) const
    {
        const unsigned g = clientGroup_[client];
        return (g != noGroup && g < groups_.size() &&
                groups_[g].enabled())
            ? &groups_[g]
            : nullptr;
    }
    TokenBucket *portGroup(unsigned client)
    {
        return const_cast<TokenBucket *>(
            const_cast<const Interconnect *>(this)->portGroup(client));
    }

    std::vector<TokenBucket> groups_;
    std::vector<unsigned> clientGroup_; //!< Per client, default noGroup.
    /** @} */

    stats::Scalar busBusy_{stats_, "busBusyCycles"};
    stats::Scalar cycles_{stats_, "cycles"};
    stats::Scalar throttledGrants_{stats_, "throttledGrants"};
    stats::Scalar groupThrottledGrants_{stats_, "groupThrottledGrants"};
};

} // namespace hwgc::mem

#endif // HWGC_MEM_INTERCONNECT_H
