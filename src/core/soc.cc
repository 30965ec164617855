/**
 * @file
 * SoC assembly, shared by a standalone device, a fleet and the fuzz
 * differ's device arrays.
 */

#include "soc.h"

#include <cstdio>
#include <sstream>
#include <utility>

#include "core/hwgc_device.h"

namespace hwgc::core
{

namespace
{

/** Appends ",<name>=v1/v2/..." (doubles round-trip: 17 digits). */
template <typename... Ts>
void
signatureField(std::ostringstream &os, const char *name,
               const Ts &...values)
{
    os << ',' << name << '=';
    const char *sep = "";
    ((os << sep << values, sep = "/"), ...);
}

} // namespace

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

std::string
Soc::configSignature() const
{
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "mq=%u,spill=%u/%u,comp=%d,slots=%u,waiters=%u,mbc=%u,tq=%u,"
        "pend=%u,utlb=%u,layout=%d,dec=%d,tags=%u,sweep=%u,stlb=%u,"
        "shared=%d,mem=%d",
        config_.markQueueEntries, config_.spillQueueEntries,
        config_.spillThrottle, int(config_.compressRefs),
        config_.markerSlots, config_.markerWalkWaiters,
        config_.markBitCacheEntries, config_.tracerQueueEntries,
        config_.tracerPendingRefs, config_.unitTlbEntries,
        int(config_.layout), int(config_.decoupledTracer),
        config_.tracerTagSlots, config_.numSweepers,
        config_.sweeperTlbEntries, int(config_.sharedCache),
        int(config_.memModel));
    std::ostringstream os;
    os.precision(17);
    os << buf;
    for (const auto &[name, p] :
         {std::pair{"ucache", config_.sharedCacheParams},
          std::pair{"pcache", config_.ptwCacheParams}}) {
        signatureField(os, name, p.sizeBytes, p.assoc, p.hitLatency,
                       p.mshrs, p.portQueueDepth, p.writebackDepth);
    }
    const mem::PtwParams &w = config_.ptw;
    signatureField(os, "ptw", w.l2TlbEntries, w.l2TlbLatency, w.queueDepth);
    const mem::DramParams &d = config_.dram;
    signatureField(os, "dram", d.banks, d.rowBytes, d.tCAS, d.tRCD, d.tRP,
                   d.tRAS, d.maxReads, d.maxWrites, d.busBytesPerCycle,
                   d.frontendLatency, int(d.scheduler),
                   int(d.pagePolicy), d.bandwidthBucket);
    const mem::IdealMemParams &i = config_.ideal;
    signatureField(os, "ideal", i.latency, i.busBytesPerCycle,
                   i.maxInFlight, i.bandwidthBucket, i.perRequestOverhead);
    const mem::InterconnectParams &b = config_.bus;
    signatureField(os, "bus", b.clientQueueDepth, b.grantsPerCycle,
                   b.requestLatency, b.responseLatency,
                   b.throttleBytesPerCycle);
    return os.str();
}

void
Soc::serialize(checkpoint::Archive &ar)
{
    // The configuration fingerprint goes first so a mismatched file
    // fails with "configurations differ" before any state parsing.
    std::string sig = configSignature();
    ar.chunk("config", sig);
    if (ar.loading()) {
        fatal_if(sig != configSignature(),
                 "checkpoint '%s' was written by a different device "
                 "configuration\n  file: %s\n  this: %s",
                 ar.origin().c_str(), sig.c_str(),
                 configSignature().c_str());
    }

    // The register files load after an owner's retargeting
    // configure() calls, so the saved values are the ones that stand.
    for (HwgcDevice *device : devices_) {
        ar.chunk(device->namePrefix() + "regs", device->regs());
    }

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
