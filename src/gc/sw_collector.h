/**
 * @file
 * The software Mark & Sweep collector — the paper's CPU baseline.
 *
 * This is the equivalent of the paper's "rewrote Jikes's GC in C,
 * compiling it with -O3" baseline (§VI-A methodology): a tight
 * mark/sweep loop whose every memory access and branch is charged
 * against the in-order core cost model while operating functionally
 * on the same heap image the hardware unit runs on. The mark queue
 * is an in-memory ring; roots are consumed from the published
 * hwgc-space so both collectors see the identical root set.
 */

#ifndef HWGC_GC_SW_COLLECTOR_H
#define HWGC_GC_SW_COLLECTOR_H

#include "cpu/core_model.h"
#include "runtime/heap.h"

namespace hwgc::gc
{

/** Counters and timings from one collection. */
struct GcResult
{
    Tick markCycles = 0;
    Tick sweepCycles = 0;
    std::uint64_t objectsMarked = 0;
    std::uint64_t refsTraced = 0;      //!< References examined.
    std::uint64_t cellsFreed = 0;      //!< Cells added to free lists.
    std::uint64_t blocksSwept = 0;
};

/** Stop-the-world software Mark & Sweep on the core model. */
class SwCollector
{
  public:
    SwCollector(runtime::Heap &heap, cpu::CoreModel &core);

    /**
     * Runs a full collection (mark, then sweep) against the published
     * roots. Mark bits must be clear on entry.
     */
    GcResult collect();

    /** Runs only the mark phase (Fig 15a / Fig 17). */
    GcResult mark();

    /** Runs only the sweep phase; requires a completed mark. */
    GcResult sweep();

  private:
    runtime::Heap &heap_;
    cpu::CoreModel &core_;
};

} // namespace hwgc::gc

#endif // HWGC_GC_SW_COLLECTOR_H
