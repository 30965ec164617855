/**
 * @file
 * A timed, multi-ported, non-blocking cache model.
 *
 * This models the traversal unit's original shared 16 KiB cache
 * (paper §V-C / Fig 18a): all unit components compete for a single
 * lookup port per cycle, and misses occupy a limited set of MSHRs.
 * The same model, sized at 8 KiB with a private port, is the PTW
 * cache of the partitioned design.
 *
 * The cache is tags-only: functional execution of a request happens
 * inside the cache exactly once, at service time, while line fills and
 * write-backs travel downstream as timing-only traffic.
 */

#ifndef HWGC_MEM_TIMED_CACHE_H
#define HWGC_MEM_TIMED_CACHE_H

#include <deque>
#include <memory>
#include <vector>

#include "mem/cache_tags.h"
#include "mem/phys_mem.h"
#include "mem/port.h"
#include "sim/clocked.h"
#include "sim/stats.h"

namespace hwgc::mem
{

/** Timed cache configuration. */
struct TimedCacheParams
{
    std::uint64_t sizeBytes = 16 * 1024;
    unsigned assoc = 4;
    Tick hitLatency = 2;
    unsigned mshrs = 4;            //!< Outstanding line fills.
    unsigned portQueueDepth = 4;   //!< Requests buffered per port.
    unsigned writebackDepth = 8;   //!< Buffered dirty evictions.
};

/** Multi-ported tags-only cache with MSHRs. */
class TimedCache : public Clocked, public MemResponder
{
  public:
    /**
     * @param bus Downstream interconnect (fills/write-backs go here
     *        through a private client port labelled "<name>.fill").
     */
    TimedCache(std::string name, const TimedCacheParams &params,
               PhysMem &mem, Interconnect &bus);
    ~TimedCache() override; // Out of line: UpstreamPort is incomplete.

    /**
     * Adds an upstream port. The returned port is owned by the cache,
     * and its request count is the cache statistic
     * "requests::<label>"; MemPort::bind() rewires it (the lookup
     * stage's pop is what frees a slot).
     * @param responder Receiver of completions (nullptr to discard).
     */
    MemPort *addPort(MemResponder *responder, std::string label);

    // MemResponder interface (fill responses from downstream).
    void onResponse(const MemResponse &resp, Tick now) override;

    // Clocked interface.
    void tick(Tick now) override;
    bool busy() const override;
    Tick nextWakeup(Tick now) const override;
    CycleClass cycleClass(Tick now) const override;
    void serialize(checkpoint::Archive &ar) override;

    /** @name Statistics @{ */
    std::uint64_t portRequests(unsigned port) const;
    const std::string &portLabel(unsigned port) const;
    unsigned numPorts() const { return unsigned(ports_.size()); }
    std::uint64_t hits() const { return hits_.value(); }
    std::uint64_t misses() const { return misses_.value(); }
    std::uint64_t writebacks() const { return writebacks_.value(); }
    /** @} */

    /** Occupied MSHRs right now (telemetry counter track). */
    unsigned
    mshrsInUse() const
    {
        unsigned n = 0;
        for (const auto &m : mshrs_) {
            n += m.valid ? 1 : 0;
        }
        return n;
    }

  private:
    struct UpstreamPort;

    struct Mshr
    {
        bool valid = false;
        Addr lineAddr = 0;
        std::vector<std::pair<unsigned, MemRequest>> targets;

        void
        serialize(checkpoint::Archive &ar)
        {
            ar(valid, lineAddr, targets);
        }
    };

    struct DueResponse
    {
        MemResponse resp;
        unsigned port = 0;
        Tick readyAt = 0;

        void serialize(checkpoint::Archive &ar) { ar(resp, port, readyAt); }
    };

    /** Functionally executes and schedules the upstream response. */
    void complete(const MemRequest &req, unsigned port, Tick now);

    /** Installs a line, queueing a write-back if the victim is dirty. */
    void installLine(Addr line_addr);

    TimedCacheParams params_;
    PhysMem &mem_;
    CacheTags tags_;
    std::unique_ptr<BusPort> fillPort_;
    std::vector<std::unique_ptr<UpstreamPort>> ports_;
    std::vector<Mshr> mshrs_;
    std::deque<Addr> writebackQueue_;
    std::deque<DueResponse> dueResponses_;
    unsigned rrNext_ = 0;
    unsigned outstandingWritebacks_ = 0;

    stats::Scalar hits_{stats_, "hits"};
    stats::Scalar misses_{stats_, "misses"};
    stats::Scalar writebacks_{stats_, "writebacks"};
};

} // namespace hwgc::mem

#endif // HWGC_MEM_TIMED_CACHE_H
