/**
 * @file
 * Configuration of the GC accelerator (paper §IV/§V design space).
 *
 * Defaults are the paper's baseline design point (§VI-A): a 1,024
 * entry mark queue, 16 marker request slots, 2 block sweepers,
 * 32-entry unit TLBs with a 128-entry shared L2 TLB, partitioned
 * caches, no reference compression and no mark-bit cache (those are
 * the Fig 19/Fig 21 design-space knobs).
 */

#ifndef HWGC_CORE_HWGC_CONFIG_H
#define HWGC_CORE_HWGC_CONFIG_H

#include <optional>

#include "mem/dram.h"
#include "mem/ideal_mem.h"
#include "mem/ptw.h"
#include "mem/timed_cache.h"
#include "runtime/object_model.h"
#include "sim/clocked.h"
#include "sim/types.h"

namespace hwgc::core
{

/** Memory-system model selection (Fig 15 vs Fig 17). */
enum class MemModel
{
    Ddr3,  //!< Table I DDR3-2000 timing model.
    Ideal, //!< 1-cycle / 8 GB/s latency-bandwidth pipe.
};

/** Full accelerator + memory-side configuration. */
struct HwgcConfig
{
    /** @name Traversal unit @{ */
    unsigned markQueueEntries = 1024; //!< Main on-chip queue (refs).
    unsigned spillQueueEntries = 64;  //!< inQ and outQ each (Fig 12).
    unsigned spillThrottle = 48;      //!< outQ level that halts tracer.
    bool compressRefs = false;        //!< 32-bit packing (§V-C).
    unsigned markerSlots = 16;        //!< Marker request slots.

    /**
     * References parked while their (serialized, blocking-PTW) walk
     * completes; the marker keeps issuing TLB-hitting references
     * under up to this many outstanding misses. 0 fully serializes
     * the marker behind every TLB miss.
     */
    unsigned markerWalkWaiters = 4;
    unsigned markBitCacheEntries = 0; //!< Fig 21 filter (0 = off).
    unsigned tracerQueueEntries = 128;
    unsigned tracerPendingRefs = 64;  //!< Response buffer backpressure.
    unsigned unitTlbEntries = 32;
    runtime::Layout layout = runtime::Layout::Bidirectional;

    /**
     * Couples the tracer to the marker (ablation of §IV-A idea II):
     * the tracer only works while the marker has no requests in
     * flight, modeling a single sequential mark-then-copy engine.
     */
    bool decoupledTracer = true;

    /**
     * Tags tracer requests (ablation of §IV-A idea III): limits the
     * tracer to this many in-flight requests as if it kept per-request
     * state like the marker. 0 = untagged/unlimited (the paper design).
     */
    unsigned tracerTagSlots = 0;
    /** @} */

    /** @name Reclamation unit @{ */
    unsigned numSweepers = 2;
    unsigned sweeperTlbEntries = 8;
    /** @} */

    /** @name Memory side @{ */
    bool sharedCache = false; //!< Fig 18a single 16 KiB cache design.
    mem::TimedCacheParams sharedCacheParams{16 * 1024, 4, 2, 4, 4, 8};
    mem::TimedCacheParams ptwCacheParams{8 * 1024, 4, 2, 1, 4, 8};
    mem::PtwParams ptw;
    MemModel memModel = MemModel::Ddr3;
    mem::DramParams dram;
    mem::IdealMemParams ideal;
    mem::InterconnectParams bus;
    /** @} */

    /**
     * Simulation kernel driving the SoC's System. Event mode skips
     * idle cycles and is cycle-exact with Dense (test_event_kernel
     * and tests/test_determinism.cc assert this); Dense remains as the
     * reference for A/B runs. Unset, the --kernel= / HWGC_KERNEL
     * option picks it, and event is the default (DESIGN.md §6).
     */
    std::optional<KernelMode> kernel;

    /**
     * SoC shape requested from drivers that can instantiate a device
     * array (the fuzz differ, fuzz_driver --config=devices=N): values
     * above 1 build that many fleet-mode devices behind one shared
     * interconnect + memory and spread the work across them. A
     * directly constructed HwgcDevice models exactly one instance and
     * ignores this; FleetLab sizes its array from FleetConfig::devices
     * instead.
     */
    unsigned devices = 1;

    /**
     * Rejects a configuration no unit can run with: fatal(), naming
     * the field and its minimum, when a sweeper count, a queue, a
     * request-slot count or a TLB is too small (zero sweepers or
     * pending-reference slots deadlock a phase; the rest cannot be
     * built). The Soc constructor calls it, so every device's
     * configuration is checked once, where it enters.
     */
    void
    validate() const
    {
        struct Minimum
        {
            const char *field;
            unsigned value;
            unsigned least;
        };
        // The mark queue's inQ/outQ move whole 64-byte spill granules.
        const unsigned granule = lineBytes / (compressRefs ? 4 : 8);
        for (const Minimum &m :
             {Minimum{"numSweepers", numSweepers, 1},
              Minimum{"tracerPendingRefs", tracerPendingRefs, 1},
              Minimum{"markerSlots", markerSlots, 1},
              Minimum{"spillQueueEntries", spillQueueEntries, granule},
              Minimum{"tracerQueueEntries", tracerQueueEntries, 1},
              Minimum{"unitTlbEntries", unitTlbEntries, 1},
              Minimum{"sweeperTlbEntries", sweeperTlbEntries, 1}}) {
            fatal_if(m.value < m.least,
                     "HwgcConfig: %s is %u, want at least %u", m.field,
                     m.value, m.least);
        }
    }
};

} // namespace hwgc::core

#endif // HWGC_CORE_HWGC_CONFIG_H
