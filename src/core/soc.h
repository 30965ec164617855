/**
 * @file
 * The SoC side every accelerator device sits behind (paper Fig 10):
 * the clock, one interconnect and one memory device.
 *
 * A standalone HwgcDevice builds a private one-device Soc; a fleet
 * (§VII) and the fuzz differ's `devices=N` shape build one Soc and
 * join N devices to it. Both run the same assembly: each joining
 * device registers its units, then seal() registers the bus and then
 * the memory after the last device's units, declares the shared-side
 * wakeup edges and registers the shared-side stats (DESIGN.md §12).
 */

#ifndef HWGC_CORE_SOC_H
#define HWGC_CORE_SOC_H

#include <memory>
#include <string>
#include <vector>

#include "core/hwgc_config.h"
#include "mem/interconnect.h"
#include "sim/checkpoint.h"
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

    Soc(const Soc &) = delete;
    Soc &operator=(const Soc &) = delete;

    /**
     * Registers the bus and then the memory after the last joined
     * device's units, declares the shared-side wakeup edges (bus on
     * memory, and each coupled tracer on the bus) and registers the
     * bus and memory stats. No device may join afterwards.
     */
    void seal();

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
     * Saves or restores the SoC part of a checkpoint (DESIGN.md §9):
     * `config` (the signature, checked on loading), each device's
     * MMIO registers (`regs`, or `hwgc<i>.regs` when shared),
     * `kernel`, one chunk per component in registration order, each
     * device's trace queue, and `physmem`. A shared SoC's owner
     * (FleetLab) archives its own chunks in front.
     */
    void serialize(checkpoint::Archive &ar);

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
};

} // namespace hwgc::core

#endif // HWGC_CORE_SOC_H
