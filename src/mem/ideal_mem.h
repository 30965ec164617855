/**
 * @file
 * The latency-bandwidth pipe memory model of paper §VI-A ("Potential
 * Performance"): a fixed access latency (1 cycle in the paper) and a
 * shared data bus with a configurable byte/cycle bandwidth (8 GB/s =
 * 8 bytes per 1 GHz cycle). Small requests occupy the bus only for
 * their own size, which is why the unit can exceed the 64B-granule
 * request rate ("one request every 8.66 cycles") while consuming less
 * data bandwidth.
 */

#ifndef HWGC_MEM_IDEAL_MEM_H
#define HWGC_MEM_IDEAL_MEM_H

#include <queue>

#include "mem/mem_device.h"
#include "mem/phys_mem.h"
#include "sim/stats.h"

namespace hwgc::mem
{

/** Configuration of the ideal pipe. */
struct IdealMemParams
{
    Tick latency = 1;              //!< Fixed access latency (cycles).
    double busBytesPerCycle = 8.0; //!< 8 GB/s at 1 GHz.
    unsigned maxInFlight = 256;    //!< Generous request window.
    Tick bandwidthBucket = 10000;  //!< Fig 16-style trace bucket.

    /**
     * Channel occupancy per message beyond the data beats. The
     * paper's port sustained ~one request per 8.66 cycles even for
     * sub-line requests — TileLink messages cost header beats, not
     * just data beats.
     */
    Tick perRequestOverhead = 2;
};

/** Fixed-latency, bandwidth-limited memory device. */
class IdealMem : public MemDevice
{
  public:
    IdealMem(std::string name, const IdealMemParams &params,
             PhysMem &mem);

    bool canAccept(const MemRequest &req) const override;
    void sendRequest(const MemRequest &req, Tick now) override;
    Tick accessAtomic(const MemRequest &req, Tick now,
                      std::array<Word, maxReqWords> &rdata) override;
    void resetTimingState() override { busFreeAt_ = 0; }

    void tick(Tick now) override;
    bool busy() const override;
    void serialize(checkpoint::Archive &ar) override;

    Tick
    nextWakeup(Tick) const override
    {
        return completions_.empty() ? maxTick : completions_.top().at;
    }

    /**
     * The pipe is the endpoint of the memory system: any in-flight
     * access means it is doing its job, so the default (which would
     * report latency waits as upstream starvation) does not apply.
     */
    CycleClass
    cycleClass(Tick) const override
    {
        return busy() ? CycleClass::Busy : CycleClass::Idle;
    }

    /** @name Statistics @{ */
    const stats::Scalar &numRequests() const { return numRequests_; }
    const stats::Scalar &bytesMoved() const { return bytesMoved_; }
    const stats::TimeSeries &bandwidth() const { return bandwidth_; }
    /** @} */

  private:
    struct Completion
    {
        Tick at = 0;
        MemRequest req;
        bool operator>(const Completion &o) const { return at > o.at; }
        void serialize(checkpoint::Archive &ar) { ar(at, req); }
    };

    Tick serviceAccess(const MemRequest &req, Tick now);

    IdealMemParams params_;
    PhysMem &mem_;
    Tick busFreeAt_ = 0;
    unsigned inFlight_ = 0;
    std::priority_queue<Completion, std::vector<Completion>,
                        std::greater<Completion>> completions_;

    stats::Scalar numRequests_{stats_, "numRequests"};
    stats::Scalar bytesMoved_{stats_, "bytesMoved"};
    stats::TimeSeries bandwidth_;
};

} // namespace hwgc::mem

#endif // HWGC_MEM_IDEAL_MEM_H
