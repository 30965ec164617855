/**
 * @file
 * The complete GC accelerator device: traversal unit + reclamation
 * unit + their memory-side plumbing, behind an MMIO-register façade.
 *
 * This is the integration point the paper's Fig 10 describes: the
 * Linux driver writes the process's page-table base and the unit's
 * configuration (hwgc-space, block list, spill region, size classes)
 * into memory-mapped registers, launches a GC phase, and polls a
 * status register. The device owns its own simulated SoC memory side
 * (interconnect + DRAM or ideal pipe) because the unit runs during a
 * stop-the-world pause — the CPU's only traffic is polling MMIO,
 * which does not touch DRAM.
 */

#ifndef HWGC_CORE_HWGC_DEVICE_H
#define HWGC_CORE_HWGC_DEVICE_H

#include <memory>

#include "core/mark_queue.h"
#include "core/marker.h"
#include "core/reclamation_unit.h"
#include "core/root_reader.h"
#include "core/tracer.h"
#include "mem/timed_cache.h"
#include "runtime/heap.h"
#include "sim/checkpoint.h"
#include "sim/profiler.h"
#include "sim/telemetry.h"

namespace hwgc::core
{

/**
 * Shared-SoC context for fleet assembly (DESIGN.md §12): when a
 * device is instantiated into a fleet it joins an externally owned
 * System and shares one Interconnect + memory device with its peer
 * devices instead of building a private memory side. The fleet
 * driver owns kernel mode, telemetry for the shared bus/memory,
 * checkpoint arming and the watchdog; the device only contributes
 * its unit components.
 */
struct SocContext
{
    System *system = nullptr;         //!< Shared kernel/clock.
    mem::Interconnect *bus = nullptr; //!< Shared interconnect.
    mem::MemDevice *memory = nullptr; //!< Shared DRAM / ideal pipe.
    mem::Dram *dram = nullptr;        //!< Non-null when DRAM-backed.
    std::string namePrefix;           //!< Component prefix, "hwgc0.".
    std::string statsPrefix;          //!< Stats prefix, "system.hwgc0".
};

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
     * @param page_table The process page table the PTW walks (the
     *        driver writes its base into the MMIO registers).
     */
    HwgcDevice(mem::PhysMem &mem, const mem::PageTable &page_table,
               const HwgcConfig &config);

    /**
     * Fleet-mode constructor: the device registers its units into
     * @p soc's shared System and sends memory traffic through the
     * shared bus. configure() can retarget it at any tenant heap in
     * the shared PhysMem (time-multiplexing, §VII).
     */
    HwgcDevice(mem::PhysMem &mem, const mem::PageTable &page_table,
               const HwgcConfig &config, const SocContext &soc);

    ~HwgcDevice();

    /** Driver helper: programs the registers from the heap's state. */
    void configure(const runtime::Heap &heap);

    /** Raw register access (the driver path of Fig 10). */
    MmioRegs &regs() { return regs_; }

    /** Runs the mark phase to completion; returns its cycle count. */
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
     * then collects the result. startMark()/startSweep() are no-ops
     * when the phase is already in flight (checkpoint resume).
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
     * Fleet wiring hook: declares the deferred wakeup edges against
     * the shared bus (they need the bus registered in the shared
     * System, which happens after device construction). Called once
     * per device by the fleet driver; owned-SoC devices declare the
     * same edges in their constructor.
     */
    void declareSharedBusEdges();

    /** True when this device joined an external (fleet) SoC. */
    bool external() const { return external_; }

    /** The unit components this device registered into the System. */
    const std::vector<Clocked *> &ownComponents() const
    {
        return ownComponents_;
    }

    /**
     * Flushes all unit-internal state (TLBs, caches, filters) —
     * called between GC pauses; the real device is context-switched
     * the same way (§VII "Context Switching").
     */
    void resetPhaseState();

    /** Resets every statistic in the device and its memory side. */
    void resetStats();

    /**
     * @name Checkpointing (DESIGN.md §9)
     *
     * A checkpoint captures the complete architectural state of the
     * device and its memory side at an inter-cycle boundary: the MMIO
     * registers and phase status, the kernel clock, every registered
     * component's queues/registers/statistics, the trace queue, and
     * the functional memory image. Restoring into an identically
     * configured device resumes the run bit-identically — same final
     * cycle count, same statistics — under either kernel (the kernel
     * mode is a host knob, not state).
     * @{
     */

    /** Serializes the full device state into @p ser. */
    void saveCheckpoint(checkpoint::Serializer &ser) const;

    /** Restores state written by saveCheckpoint(); mismatch fatals. */
    void restoreCheckpoint(checkpoint::Deserializer &des);

    /** saveCheckpoint() to @p path; returns false (warn) on I/O error. */
    bool writeCheckpoint(const std::string &path) const;

    /** restoreCheckpoint() from @p path; unreadable/corrupt fatals. */
    void restoreCheckpoint(const std::string &path);

    /**
     * Arms checkpoint output: the device writes @p path after every
     * completed GC phase, or — when @p at is nonzero — once, at the
     * first inter-cycle boundary at or after device cycle @p at (even
     * mid-phase). Arming also installs a crash hook that dumps
     * "<path>.crash.<pid>" plus "<path>.crash.<pid>.stats.json" on
     * any panic()/fatal() for post-mortem inspection
     * (examples/heap_inspector); the pid suffix keeps artifacts from
     * parallel fuzz/farm workers collision-free.
     * configure() arms automatically from --checkpoint-out= /
     * HWGC_CHECKPOINT_OUT; an empty @p path disarms.
     */
    void armCheckpoint(const std::string &path, Tick at = 0);
    /** @} */

    /** @name Component access for benches and tests @{ */
    Marker &marker() { return *marker_; }
    Tracer &tracer() { return *tracer_; }
    MarkQueue &markQueue() { return *markQueue_; }
    TraceQueue &traceQueue() { return *traceQueue_; }
    RootReader &rootReader() { return *rootReader_; }
    ReclamationUnit &reclamation() { return *reclamation_; }
    mem::Interconnect &bus() { return *busPtr_; }
    mem::MemDevice &memory() { return *memPtr_; }
    mem::Ptw &ptw() { return *ptw_; }
    mem::Dram *dram() { return dramPtr_; }
    mem::TimedCache *sharedCache() { return sharedCache_.get(); }
    mem::TimedCache *ptwCache() { return ptwCache_.get(); }
    const HwgcConfig &config() const { return config_; }
    System &system() { return *sys_; }
    /** @} */

    /**
     * Architectural configuration fingerprint embedded in every
     * checkpoint. Deliberately excludes the kernel mode: it changes
     * host execution only, so a checkpoint saved under one kernel
     * restores under the other.
     */
    std::string configSignature() const;

    /**
     * The dotted path this device's stats groups registered under in
     * the global telemetry::StatsRegistry ("system.hwgc0", ...). Also
     * the track prefix of its trace-event timeline.
     */
    const std::string &statsPrefix() const { return statsPrefix_; }

    /**
     * The cycle-accounting profiler, or nullptr unless
     * telemetry::options().profile was set before construction
     * (--profile / HWGC_PROFILE). See DESIGN.md §10.
     */
    telemetry::CycleProfiler *profiler() { return profiler_.get(); }

  private:
    /** Steps the system until the given phase-done predicate holds
     *  and the memory side has drained, pausing at an armed
     *  --checkpoint-at= boundary to write the checkpoint. */
    Tick runUntil(const char *phase);

    /** Shared assembly path behind both public constructors. */
    HwgcDevice(mem::PhysMem &mem, const mem::PageTable &page_table,
               const HwgcConfig &config, const SocContext *soc);

    /** Installs the PTW's (owner, token) -> walk-callback factory. */
    void installWalkResolver();

    /** Writes the armed checkpoint after a completed phase. */
    void writePhaseCheckpoint();

    /** The panic()/fatal() hook target (see armCheckpoint()). */
    static void crashHook(void *ctx);
    void writeCrashDump();

    /** Watchdog reporter: live bottleneck report + stats to stderr. */
    void writeWatchdogReport();

    HwgcConfig config_;
    mem::PhysMem &mem_;
    const mem::PageTable &pageTable_;
    MmioRegs regs_;

    /** @name SoC plumbing: owned (classic) or shared (fleet) @{ */
    bool external_ = false;
    std::string namePrefix_;     //!< Prepended to component names.
    std::unique_ptr<System> ownSystem_;
    System *sys_ = nullptr;
    std::unique_ptr<mem::MemDevice> memory_;
    mem::MemDevice *memPtr_ = nullptr;
    mem::Dram *dramPtr_ = nullptr;
    std::unique_ptr<mem::Interconnect> bus_;
    mem::Interconnect *busPtr_ = nullptr;
    std::vector<Clocked *> ownComponents_;
    /** @} */
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

    /** Registers every component's stats under statsPrefix_ and
     *  attaches the kernel observer when telemetry is active. */
    void registerTelemetry();

    std::string statsPrefix_;
    std::vector<std::unique_ptr<stats::Group>> statGroups_;
    std::vector<std::string> statPaths_;
    std::unique_ptr<telemetry::SystemTracer> sysTracer_;
    std::unique_ptr<telemetry::CycleProfiler> profiler_;

    /** @name Armed checkpoint output (see armCheckpoint()) @{ */
    std::string checkpointOut_;
    Tick checkpointAt_ = 0;
    bool checkpointAtDone_ = false;
    unsigned crashHookId_ = 0; //!< addCrashHook() id (0 = not armed).
    /** @} */
};

} // namespace hwgc::core

#endif // HWGC_CORE_HWGC_DEVICE_H
