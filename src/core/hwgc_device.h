/**
 * @file
 * The complete GC accelerator device: traversal unit + reclamation
 * unit + their memory-side plumbing, behind an MMIO-register façade.
 *
 * This is the integration point the paper's Fig 10 describes: the
 * Linux driver writes the process's page-table base and the unit's
 * configuration (hwgc-space, block list, spill region, size classes)
 * into memory-mapped registers, launches a GC phase, and polls a
 * status register. A standalone device builds a private one-device
 * Soc (interconnect + DRAM or ideal pipe) because the unit runs during
 * a stop-the-world pause — the CPU's only traffic is polling MMIO,
 * which does not touch DRAM. A fleet device joins a shared Soc
 * instead (DESIGN.md §12).
 */

#ifndef HWGC_CORE_HWGC_DEVICE_H
#define HWGC_CORE_HWGC_DEVICE_H

#include <memory>

#include "core/mark_queue.h"
#include "core/marker.h"
#include "core/reclamation_unit.h"
#include "core/root_reader.h"
#include "core/soc.h"
#include "core/tracer.h"
#include "mem/timed_cache.h"
#include "runtime/heap.h"
#include "sim/checkpoint.h"
#include "sim/telemetry.h"

namespace hwgc::core
{

/** The device's memory-mapped register file (driver interface). */
struct MmioRegs
{
    Addr pageTableBase = 0;  //!< satp analogue.
    Addr hwgcSpaceBase = 0;  //!< Root region VA.
    std::uint64_t rootCount = 0;
    Addr blockTableBase = 0; //!< Block descriptor list VA.
    std::uint64_t blockCount = 0;
    Addr spillBase = 0;      //!< Spill region PA.
    std::uint64_t spillBytes = 0;

    /** Status register values polled by the runtime (§IV-C). */
    enum Status : std::uint64_t { Idle = 0, Marking = 1, Sweeping = 2 };
    std::uint64_t status = Idle;

    /** Checkpoint encoding: the eight words above, in order. */
    void
    serialize(checkpoint::Archive &ar)
    {
        ar(pageTableBase, hwgcSpaceBase, rootCount, blockTableBase,
           blockCount, spillBase, spillBytes, status);
    }
};

/** Result of one accelerator phase. */
struct HwPhaseResult
{
    Tick cycles = 0;
    std::uint64_t objectsMarked = 0;
    std::uint64_t refsTraced = 0;
    std::uint64_t cellsFreed = 0;
};

/** The assembled accelerator. */
class HwgcDevice
{
  public:
    /**
     * A standalone device: builds a private one-device Soc over
     * @p mem, joins it and seals it.
     *
     * @param page_table The process page table the PTW walks (the
     *        driver writes its base into the MMIO registers).
     */
    HwgcDevice(mem::PhysMem &mem, const mem::PageTable &page_table,
               const HwgcConfig &config);

    /**
     * A fleet device: joins @p soc as its next device with the SoC's
     * configuration, registering its units into the shared System
     * and sending memory traffic through the shared bus. The owner
     * seals @p soc after the last device joined. configure() can
     * retarget the device at any tenant heap in the shared PhysMem
     * (time-multiplexing, §VII).
     */
    HwgcDevice(Soc &soc, const mem::PageTable &page_table);

    ~HwgcDevice();

    /** Driver helper: programs the registers from the heap's state. */
    void configure(const runtime::Heap &heap);

    /** Raw register access (the driver path of Fig 10). */
    MmioRegs &regs() { return regs_; }

    /**
     * Runs the mark phase to completion; returns its cycle count. On
     * a device restored mid-sweep the mark is already over: returns a
     * zero result without marking.
     */
    HwPhaseResult runMark();

    /** Runs the sweep phase to completion. */
    HwPhaseResult runSweep();

    /** Runs mark then sweep. */
    HwPhaseResult collect();

    /**
     * @name Split phase control (fleet mode)
     *
     * runMark()/runSweep() drive the device's own System until the
     * phase drains. A fleet interleaves many devices on one shared
     * System, so the driver launches a phase, steps the shared clock
     * itself, polls the done predicate at scheduling boundaries, and
     * then collects the result. The done predicates hold only once
     * the device's own units are idle, so a unit with responses still
     * in flight is never context-switched under its pending traffic.
     * startMark()/startSweep() are no-ops when the phase is already
     * in flight (checkpoint resume).
     * @{
     */
    void startMark();
    bool markDone() const;
    HwPhaseResult finishMark();
    void startSweep();
    bool sweepDone() const;
    HwPhaseResult finishSweep();
    /** @} */

    /**
     * Flushes all unit-internal state (TLBs, caches, filters) —
     * called between GC pauses; the real device is context-switched
     * the same way (§VII "Context Switching").
     */
    void resetPhaseState();

    /** Resets every statistic the device owns: its units' groups and,
     *  standalone, those of its bus and memory. */
    void resetStats();

    /**
     * The SoC this device sits behind, which owns the run:
     * checkpoints, the crash dump, the watchdog and the observers
     * (DESIGN.md §9, §10). A standalone device's configure() resumes
     * it (--checkpoint-in=); runMark()/runSweep() write its armed
     * images at the exact --checkpoint-at= cycle and after each phase.
     */
    Soc &soc() { return soc_; }

    /** @name Component access for benches and tests @{ */
    Marker &marker() { return *marker_; }
    Tracer &tracer() { return *tracer_; }
    MarkQueue &markQueue() { return *markQueue_; }
    TraceQueue &traceQueue() { return *traceQueue_; }
    RootReader &rootReader() { return *rootReader_; }
    ReclamationUnit &reclamation() { return *reclamation_; }
    mem::Interconnect &bus() { return soc_.bus(); }
    mem::Ptw &ptw() { return *ptw_; }
    mem::Dram *dram() { return soc_.dram(); }
    mem::TimedCache *sharedCache() { return sharedCache_.get(); }
    mem::TimedCache *ptwCache() { return ptwCache_.get(); }
    const HwgcConfig &config() const { return config_; }
    System &system() { return soc_.system(); }
    /** @} */

    /**
     * The dotted path this device's stats groups registered under in
     * the global telemetry::StatsRegistry: "system.hwgcN" standalone,
     * "system.fleetN.hwgc<i>" for device i of a shared SoC. Each
     * unit's group is registered once and carries its child groups
     * ("marker.tlb", "ptw.l2tlb"). Also the track prefix of its
     * trace-event timeline.
     */
    const std::string &statsPrefix() const { return statsPrefix_; }

    /** Prepended to every component name: "" standalone, "hwgc0."... */
    const std::string &namePrefix() const { return namePrefix_; }

    /**
     * Its SoC's cycle-accounting profiler, or nullptr unless
     * telemetry::options().profile was set before the SoC was sealed
     * (--profile / HWGC_PROFILE). See DESIGN.md §10.
     */
    telemetry::CycleProfiler *profiler() { return soc_.profiler(); }

  private:
    /** Steps the system until the given phase-done predicate holds
     *  and the memory side has drained, pausing at the SoC's due
     *  --checkpoint-at= cycle to write the image. */
    Tick runUntil(const char *phase);

    /** Joins soc_: builds and registers the units and their stats
     *  (the assembly both constructors share). */
    void join();

    /** True when the units and the device-side caches are idle. */
    bool unitsDrained() const;

    HwgcConfig config_;
    /** The private SoC of a standalone device; null in a fleet. */
    std::unique_ptr<Soc> ownedSoc_;
    Soc &soc_;
    const mem::PageTable &pageTable_;
    MmioRegs regs_;
    std::string namePrefix_;
    std::vector<Clocked *> units_; //!< Registered by join().
    std::unique_ptr<mem::TimedCache> sharedCache_; //!< Fig 18a mode.
    std::unique_ptr<mem::TimedCache> ptwCache_;    //!< Partitioned.
    std::unique_ptr<mem::Ptw> ptw_;

    std::vector<std::unique_ptr<mem::BusPort>> busPorts_;
    mem::MemPort *markerPort_ = nullptr;
    mem::MemPort *tracerPort_ = nullptr;
    mem::MemPort *spillPort_ = nullptr;
    mem::MemPort *readerPort_ = nullptr;
    mem::MemPort *blockReaderPort_ = nullptr;
    std::vector<mem::MemPort *> sweeperPorts_;

    std::unique_ptr<MarkQueue> markQueue_;
    std::unique_ptr<TraceQueue> traceQueue_;
    std::unique_ptr<Marker> marker_;
    std::unique_ptr<Tracer> tracer_;
    std::unique_ptr<RootReader> rootReader_;
    std::unique_ptr<ReclamationUnit> reclamation_;

    std::string statsPrefix_;
    telemetry::StatsGroups stats_;
};

} // namespace hwgc::core

#endif // HWGC_CORE_HWGC_DEVICE_H
