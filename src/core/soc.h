/**
 * @file
 * The SoC side every accelerator device sits behind (paper Fig 10):
 * the clock, one interconnect and one memory device — and the owner
 * of the run on them.
 *
 * A standalone HwgcDevice builds a private one-device Soc; a fleet
 * (§VII) and the fuzz differ's `devices=N` shape build one Soc and
 * join N devices to it. Both run the same assembly: each joining
 * device registers its units, then seal() registers the bus and then
 * the memory after the last device's units, declares the shared-side
 * wakeup edges and registers the shared-side stats (DESIGN.md §12).
 * Sealing also reads the run options, so every shape gets the same
 * checkpoint output, crash dump, watchdog and observers (§9, §10).
 */

#ifndef HWGC_CORE_SOC_H
#define HWGC_CORE_SOC_H

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/hwgc_config.h"
#include "mem/interconnect.h"
#include "sim/checkpoint.h"
#include "sim/profiler.h"
#include "sim/telemetry.h"

namespace hwgc::core
{

class HwgcDevice;

/**
 * Builds the memory device @p config.memModel selects over @p mem:
 * the Table I DDR3 model, named "<prefix>dram", or the ideal pipe of
 * Fig 17, named "<prefix>idealmem".
 */
std::unique_ptr<mem::MemDevice> makeMemDevice(const HwgcConfig &config,
                                              mem::PhysMem &mem,
                                              const std::string &prefix);

/** The shared side of the SoC and the devices joined to it. */
class Soc
{
  public:
    /**
     * Builds the System, the memory device and the interconnect from
     * @p config, shared by the devices that join it. The SoC owns its
     * devices' stats paths: device i's components are
     * "hwgc<i>.marker", ..., its stats "system.fleetN.hwgc<i>", and
     * the bus and memory stats "system.fleetN.bus" and
     * "system.fleetN.memory", so every fleet in a process keeps its
     * own.
     * The kernel is config.kernel when set, else the --kernel= /
     * HWGC_KERNEL option, else event (DESIGN.md §6). An unusable
     * @p config is fatal (HwgcConfig::validate()).
     */
    Soc(mem::PhysMem &mem, const HwgcConfig &config);

    ~Soc();

    Soc(const Soc &) = delete;
    Soc &operator=(const Soc &) = delete;

    /**
     * Registers the bus and then the memory after the last joined
     * device's units, declares the shared-side wakeup edges (bus on
     * memory, and each coupled tracer on the bus) and registers the
     * bus and memory stats. No device may join afterwards.
     *
     * Then reads the run options: --checkpoint-out= / --checkpoint-at=
     * arm checkpoint output (armCheckpoint()), --watchdog-secs= arms
     * the watchdog with the live report, and --profile, a trace sink
     * or --stats-interval= attach the observers. @p owner_chunks
     * archives an owner's own chunks in front of the SoC part of
     * every image (a fleet's); none for a standalone device.
     */
    void seal(std::function<void(checkpoint::Archive &)> owner_chunks = {});

    /** @name Shared side @{ */
    System &system() { return system_; }
    const System &system() const { return system_; }
    mem::Interconnect &bus() { return *bus_; }
    mem::MemDevice &memory() { return *memory_; }
    mem::Dram *dram() { return dram_; }
    mem::PhysMem &physMem() { return mem_; }
    const HwgcConfig &config() const { return config_; }
    /** @} */

    /**
     * Architectural configuration fingerprint: every HwgcConfig field
     * that shapes simulation, the bus, memory, PTW and cache
     * parameters included. Deliberately excludes the kernel mode — it
     * changes host execution only, so a checkpoint saved under one
     * kernel restores under the other — and `devices`, which no SoC
     * reads.
     */
    std::string configSignature() const;

    /**
     * @name Checkpoints (DESIGN.md §9)
     *
     * An image captures the whole run at an inter-cycle boundary, and
     * restoring it into an identically configured owner resumes the
     * run bit-identically under either kernel. The owner decides only
     * when an image is written: it stops its run at checkpointDue()
     * and calls writeDueCheckpoint() there, and calls
     * writeSettledCheckpoint() at its settled points (a device after
     * each phase, a fleet when it finishes).
     * @{
     */

    /**
     * Saves or restores an image: the owner's chunks (see seal()),
     * then the SoC part — `config` (the signature, checked on
     * loading), each device's MMIO registers (`regs`, or
     * `hwgc<i>.regs` when shared), `kernel`, one chunk per component
     * in registration order, each device's trace queue, and
     * `physmem`.
     */
    void serialize(checkpoint::Archive &ar);

    /** Saves an image to @p path; returns false (warn) on I/O error. */
    bool writeCheckpoint(const std::string &path);

    /** Restores the image at @p path; an unreadable, corrupt or
     *  differently configured image is fatal. */
    void restoreCheckpoint(const std::string &path);

    /**
     * Restores the --checkpoint-in= image, if any, and clears the
     * option: one image resumes one run, so the owner's later resume
     * points (a device's next configure()) continue the restored run.
     */
    void resume();

    /**
     * Arms checkpoint output (seal() arms --checkpoint-out= /
     * --checkpoint-at=): @p path is written at every settled point,
     * or — when @p at is nonzero — once, at the owner's first stop at
     * or after cycle @p at (even mid-phase); a run that ends before
     * then warns, naming the cycle and the path. While armed, any
     * panic()/fatal() dumps "<path>.crash.<pid>" plus
     * "<path>.crash.<pid>.stats.json" for post-mortem inspection
     * (examples/heap_inspector); the pid suffix keeps artifacts from
     * parallel workers apart. An empty @p path disarms.
     */
    void armCheckpoint(const std::string &path, Tick at = 0);

    /** The cycle the armed --checkpoint-at= image is due at; maxTick
     *  when none is pending. */
    Tick checkpointDue() const;

    /** Writes the due image at the current cycle. */
    void writeDueCheckpoint();

    /** Writes the image armed without a cycle, if any. */
    void writeSettledCheckpoint();
    /** @} */

    /**
     * @name Observers (DESIGN.md §10)
     * @{
     */

    /** The cycle-accounting profiler (--profile), or nullptr. */
    telemetry::CycleProfiler *profiler() { return profiler_.get(); }

    /** Closes the activity tracer's open spans and samples its
     *  counters at the current cycle (a device's phase end). */
    void flushTrace();

    /**
     * Flushes the activity tracer and detaches both observers. Every
     * joined device calls it before its units die: the tracer's
     * counters read them.
     */
    void detachObservers();
    /** @} */

  private:
    friend class HwgcDevice;

    /** Who the SoC serves; fixes naming only. */
    enum class Scope
    {
        /**
         * A standalone device's private SoC: components keep their
         * bare names ("marker", "dram") and the bus and memory stats
         * sit beside the units under the device's "system.hwgcN".
         */
        Device,
        Fleet, //!< Shared (see the public constructor).
    };

    /** The public constructor, with @p scope fixing the naming. */
    Soc(mem::PhysMem &mem, const HwgcConfig &config, Scope scope);

    /** A joining device's component-name and stats prefixes. */
    struct Slot
    {
        std::string namePrefix;
        std::string statsPrefix;
    };

    /** Adds @p device as the next device; called by its constructor. */
    Slot join(HwgcDevice &device);

    /** Attaches the observers the run options ask for (seal()). */
    void attachObservers(const telemetry::Options &opts);

    /** Run metadata for a live dump tagged @p binary. */
    telemetry::RunMetadata liveMetadata(const char *binary) const;

    /**
     * The panic()/fatal() hook every SoC registers for its lifetime;
     * it dumps only while checkpoint output is armed. One registry
     * slot per SoC: a panic dumps every armed run in the process.
     */
    static void crashHook(void *ctx);
    void writeCrashDump();

    /** Watchdog reporter: live bottleneck report + stats to stderr. */
    void writeWatchdogReport();

    HwgcConfig config_;
    Scope scope_;
    mem::PhysMem &mem_;
    System system_;
    std::unique_ptr<mem::MemDevice> memory_;
    mem::Dram *dram_ = nullptr;
    std::unique_ptr<mem::Interconnect> bus_;
    std::vector<HwgcDevice *> devices_;
    std::string statsPrefix_; //!< "system.hwgcN" or "system.fleetN".
    bool sealed_ = false;
    telemetry::StatsGroups stats_;
    std::function<void(checkpoint::Archive &)> ownerChunks_;

    /** @name Armed checkpoint output (see armCheckpoint()) @{ */
    std::string checkpointOut_;
    Tick checkpointAt_ = 0;
    bool checkpointAtDone_ = false;
    unsigned crashHookId_ = 0; //!< addCrashHook() id.
    /** @} */

    std::unique_ptr<telemetry::SystemTracer> activity_;
    std::unique_ptr<telemetry::CycleProfiler> profiler_;
};

} // namespace hwgc::core

#endif // HWGC_CORE_SOC_H
