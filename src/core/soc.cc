/**
 * @file
 * SoC assembly, shared by a standalone device, a fleet and the fuzz
 * differ's device arrays.
 */

#include "soc.h"

#include "core/hwgc_device.h"

namespace hwgc::core
{

std::unique_ptr<mem::MemDevice>
makeMemDevice(const HwgcConfig &config, mem::PhysMem &mem,
              const std::string &prefix)
{
    if (config.memModel == MemModel::Ddr3) {
        return std::make_unique<mem::Dram>(prefix + "dram", config.dram,
                                           mem);
    }
    return std::make_unique<mem::IdealMem>(prefix + "idealmem",
                                           config.ideal, mem);
}

Soc::Soc(mem::PhysMem &mem, const HwgcConfig &config)
    : Soc(mem, config, Scope::Fleet)
{
}

Soc::Soc(mem::PhysMem &mem, const HwgcConfig &config, Scope scope)
    : config_(config), scope_(scope), mem_(mem),
      memory_(makeMemDevice(config, mem, "")),
      dram_(dynamic_cast<mem::Dram *>(memory_.get())),
      bus_(std::make_unique<mem::Interconnect>("bus", config.bus,
                                               *memory_))
{
    config_.validate();
    system_.setMode(config.kernel.value_or(
        telemetry::options().kernel.value_or(KernelMode::Event)));
    statsPrefix_ = telemetry::StatsRegistry::global().uniquePrefix(
        scope_ == Scope::Device ? "system.hwgc" : "system.fleet");
}

Soc::Slot
Soc::join(HwgcDevice &device)
{
    panic_if(sealed_, "a device joined a sealed SoC");
    panic_if(scope_ == Scope::Device && !devices_.empty(),
             "a device's private SoC holds one device");
    const unsigned index = unsigned(devices_.size());
    devices_.push_back(&device);
    if (scope_ == Scope::Device) {
        return {"", statsPrefix_};
    }
    const std::string name = "hwgc" + std::to_string(index);
    return {name + ".", statsPrefix_ + "." + name};
}

void
Soc::seal()
{
    panic_if(sealed_, "SoC sealed twice");
    sealed_ = true;
    // Memory devices last, so same-cycle requests are seen next cycle.
    system_.add(bus_.get());
    system_.add(memory_.get());
    // The bus polls memory.canAccept; the memory reads only its own
    // state.
    system_.declareWakeupInputs(bus_.get(), {memory_.get()});
    system_.declareWakeupInputs(memory_.get(), {});
    // The memory classifies by its own queues alone. The bus declares
    // no class inputs: its class turns when a queued head's request
    // latency elapses, with nothing ticking.
    system_.declareClassInputs(memory_.get(), {});
    for (HwgcDevice *device : devices_) {
        if (!device->config().decoupledTracer) {
            // Coupled-pipeline ablation: the tracer also polls the
            // marker's in-flight reads, which drop inside the bus tick
            // that delivers the marker's response.
            system_.declareWakeupInputs(&device->tracer(), {bus_.get()});
        }
    }
    stats_.add(statsPrefix_ + ".bus", bus_->stats());
    stats_.add(statsPrefix_ + ".memory", memory_->stats());
}

void
Soc::serialize(checkpoint::Archive &ar)
{
    ar.chunk("kernel", system_);

    // One chunk per Clocked component, named by instance name, in
    // registration (= evaluation) order.
    for (Clocked *c : system_.components()) {
        ar.chunk(c->name(), *c);
    }

    // Trace queues are passive (not Clocked) but carry phase state.
    for (HwgcDevice *device : devices_) {
        ar.chunk(device->namePrefix() + "traceQueue",
                 device->traceQueue());
    }

    ar.beginChunk("physmem");
    checkpoint::physMem(ar, mem_);
    ar.endChunk();
}

} // namespace hwgc::core
