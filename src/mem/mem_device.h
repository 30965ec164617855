/**
 * @file
 * Common interface for timing models of memory-side devices (the DRAM
 * controller model and the ideal latency-bandwidth pipe of Fig 17).
 *
 * Devices support two access styles, mirroring gem5:
 *  - timed: requests are queued and a response is delivered to the
 *    registered MemResponder some cycles later (used by the hardware
 *    GC unit's pipelined state machines);
 *  - atomic: the access completes immediately and the device returns
 *    its latency, while still updating bank/bus state and statistics
 *    (used by the execution-driven CPU cost model, which is the only
 *    agent in the system during a stop-the-world pause).
 */

#ifndef HWGC_MEM_MEM_DEVICE_H
#define HWGC_MEM_MEM_DEVICE_H

#include "mem/request.h"
#include "sim/clocked.h"

namespace hwgc::mem
{

/** Timing + functional model of a memory-side device. */
class MemDevice : public Clocked
{
  public:
    explicit MemDevice(std::string name) : Clocked(std::move(name)) {}

    /** Registers the single upstream receiver of timed responses. */
    void setResponder(MemResponder *r) { responder_ = r; }

    /** True if a timed request of this kind can be enqueued now. */
    virtual bool canAccept(const MemRequest &req) const = 0;

    /** Enqueues a timed request; caller must have checked canAccept. */
    virtual void sendRequest(const MemRequest &req, Tick now) = 0;

    /**
     * Performs an atomic access: executes the request functionally,
     * fills @p rdata, updates internal timing state and returns the
     * access latency in cycles.
     */
    virtual Tick accessAtomic(const MemRequest &req, Tick now,
                              std::array<Word, maxReqWords> &rdata) = 0;

    /**
     * Resets internal timing state (bank/row buffers, bus occupancy
     * timestamps) between experiment phases. Required whenever the
     * requester's time base restarts (the atomic-mode CPU resets its
     * cycle counter per pause); harmless otherwise.
     */
    virtual void resetTimingState() = 0;

  protected:
    MemResponder *responder_ = nullptr;
};

} // namespace hwgc::mem

#endif // HWGC_MEM_MEM_DEVICE_H
