/**
 * @file
 * SoC assembly and run ownership, shared by a standalone device, a
 * fleet and the fuzz differ's device arrays.
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
    crashHookId_ = addCrashHook(&Soc::crashHook, this);
}

Soc::~Soc()
{
    removeCrashHook(crashHookId_);
    if (checkpointDue() != maxTick) {
        warn("checkpoint: the run ended at cycle %llu, before "
             "--checkpoint-at=%llu; '%s' not written",
             (unsigned long long)system_.now(),
             (unsigned long long)checkpointAt_, checkpointOut_.c_str());
    }
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
Soc::seal(std::function<void(checkpoint::Archive &)> owner_chunks)
{
    panic_if(sealed_, "SoC sealed twice");
    sealed_ = true;
    ownerChunks_ = std::move(owner_chunks);
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

    // The run options (--checkpoint-* / --watchdog-secs= / --profile /
    // --stats-interval= and the trace sink, or their HWGC_* variables).
    const telemetry::Options &opts = telemetry::options();
    armCheckpoint(opts.checkpointOut, opts.checkpointAt);
    if (opts.watchdogSecs > 0.0) {
        // A wedged run dumps its live report before the panic, which
        // also fires the crash hook.
        system_.setWatchdog(opts.watchdogSecs,
                            [this] { writeWatchdogReport(); });
    }
    attachObservers(opts);
}

void
Soc::attachObservers(const telemetry::Options &opts)
{
    // Attach kernel observers only when a telemetry sink is on, so
    // the default cost is one null-pointer compare per executed cycle.
    if (telemetry::TraceWriter::global().enabled() ||
        opts.statsInterval != 0) {
        std::vector<std::string> names;
        for (const Clocked *c : system_.components()) {
            names.push_back(c->name());
        }
        activity_ = std::make_unique<telemetry::SystemTracer>(
            std::move(names), statsPrefix_ + ".", opts.statsInterval);
        for (HwgcDevice *d : devices_) {
            const std::string &p = d->namePrefix();
            activity_->addCounter(p + "markQueue.depth", [d] {
                return double(d->markQueue().depth());
            });
            activity_->addCounter(p + "traceQueue.depth", [d] {
                return double(d->traceQueue().size());
            });
        }
        activity_->addRateCounter("bus.utilization", [this] {
            return double(bus_->busBusyCycles());
        });
        if (mem::Dram *dram = dram_) {
            activity_->addRateCounter("dram.bytesPerCycle", [dram] {
                return double(dram->bytesRead().value() +
                              dram->bytesWritten().value());
            });
        }
        for (HwgcDevice *d : devices_) {
            for (const auto &[label, cache] :
                 {std::pair{"unitcache.mshrs", d->sharedCache()},
                  std::pair{"ptwcache.mshrs", d->ptwCache()}}) {
                if (cache != nullptr) {
                    activity_->addCounter(
                        d->namePrefix() + label,
                        [cache] { return double(cache->mshrsInUse()); });
                }
            }
        }
    }

    // The System holds one observer pointer; with both sinks active
    // the profiler observes first and forwards to the tracer.
    if (opts.profile) {
        profiler_ = std::make_unique<telemetry::CycleProfiler>(
            system_, statsPrefix_);
        profiler_->setChain(activity_.get());
        system_.setObserver(profiler_.get());
    } else if (activity_) {
        system_.setObserver(activity_.get());
    }
}

void
Soc::flushTrace()
{
    if (activity_) {
        activity_->flush(system_.now());
    }
}

void
Soc::detachObservers()
{
    flushTrace();
    activity_.reset();
    if (profiler_) {
        profiler_->setChain(nullptr);
    }
    system_.setObserver(nullptr);
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
    if (ownerChunks_) {
        ownerChunks_(ar);
    }

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

bool
Soc::writeCheckpoint(const std::string &path)
{
    return checkpoint::save(
        path, [this](checkpoint::Archive &ar) { serialize(ar); });
}

void
Soc::restoreCheckpoint(const std::string &path)
{
    checkpoint::load(
        path, [this](checkpoint::Archive &ar) { serialize(ar); });
    DPRINTF(system_.now(), "Device",
            "%s: restored checkpoint '%s' at cycle %llu",
            statsPrefix_.c_str(), path.c_str(),
            (unsigned long long)system_.now());
}

void
Soc::resume()
{
    const std::string in =
        std::exchange(telemetry::options().checkpointIn, "");
    if (!in.empty()) {
        restoreCheckpoint(in);
    }
}

void
Soc::armCheckpoint(const std::string &path, Tick at)
{
    checkpointOut_ = path;
    checkpointAt_ = at;
    checkpointAtDone_ = false;
}

Tick
Soc::checkpointDue() const
{
    return !checkpointOut_.empty() && checkpointAt_ != 0 &&
            !checkpointAtDone_
        ? checkpointAt_
        : maxTick;
}

void
Soc::writeDueCheckpoint()
{
    checkpointAtDone_ = true;
    if (writeCheckpoint(checkpointOut_)) {
        inform("checkpoint: wrote '%s' at cycle %llu",
               checkpointOut_.c_str(), (unsigned long long)system_.now());
    }
}

void
Soc::writeSettledCheckpoint()
{
    // The file always holds the latest settled state, so a crashed or
    // aborted multi-pause run can resume from its last settled point.
    if (!checkpointOut_.empty() && checkpointAt_ == 0) {
        writeCheckpoint(checkpointOut_);
    }
}

telemetry::RunMetadata
Soc::liveMetadata(const char *binary) const
{
    telemetry::RunMetadata meta;
    meta.binary = binary;
    meta.config = configSignature();
    meta.simCycles = system_.now();
    return meta;
}

void
Soc::crashHook(void *ctx)
{
    static_cast<Soc *>(ctx)->writeCrashDump();
}

void
Soc::writeCrashDump()
{
    if (checkpointOut_.empty()) {
        return; // Not armed.
    }
    // Artifact names carry the pid so parallel workers (and
    // concurrent --watchdog-secs panics) never clobber each other.
    const std::string base =
        checkpoint::crashArtifactBase(checkpointOut_);
    // The stats dump first: it only reads counters, so it succeeds
    // even when the failure struck mid-tick.
    telemetry::StatsRegistry::global().exportJsonFile(
        base + ".stats.json", liveMetadata("crash-dump"));
    inform("crash dump: wrote '%s.stats.json'", base.c_str());
    // Best-effort architectural snapshot. A mid-tick failure can make
    // component state unserializable (the save() invariants fire); the
    // hook is cleared before it runs, so that second failure cannot
    // recurse — the original diagnostic is already on stderr.
    if (writeCheckpoint(base)) {
        inform("crash dump: wrote '%s'", base.c_str());
    }
}

void
Soc::writeWatchdogReport()
{
    std::fprintf(stderr,
                 "watchdog: %s made no progress (cycle %llu); live "
                 "state follows\n",
                 statsPrefix_.c_str(),
                 (unsigned long long)system_.now());
    if (profiler_) {
        profiler_->report(stderr);
    }
    std::ostringstream os;
    telemetry::StatsRegistry::global().exportJson(
        os, liveMetadata("watchdog-dump"));
    std::fputs(os.str().c_str(), stderr);
}

} // namespace hwgc::core
