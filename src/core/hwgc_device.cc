/**
 * @file
 * Device assembly: ports, units and phase control.
 */

#include "hwgc_device.h"

#include <algorithm>
#include <vector>

#include "runtime/heap_layout.h"

namespace hwgc::core
{

HwgcDevice::HwgcDevice(mem::PhysMem &mem,
                       const mem::PageTable &page_table,
                       const HwgcConfig &config)
    : config_(config),
      ownedSoc_(new Soc(mem, config, Soc::Scope::Device)),
      soc_(*ownedSoc_), pageTable_(page_table)
{
    join();
    soc_.seal();
}

HwgcDevice::HwgcDevice(Soc &soc, const mem::PageTable &page_table)
    : config_(soc.config()), soc_(soc), pageTable_(page_table)
{
    join();
}

void
HwgcDevice::join()
{
    const Soc::Slot slot = soc_.join(*this);
    namePrefix_ = slot.namePrefix;
    statsPrefix_ = slot.statsPrefix;
    mem::PhysMem &mem = soc_.physMem();
    mem::Interconnect &bus = soc_.bus();
    System &sys = soc_.system();

    // Port plumbing. In the shared design every traversal component
    // (and the PTW) competes for one 16 KiB cache (Fig 18a); in the
    // partitioned design the PTW keeps a private 8 KiB cache and the
    // others talk to the interconnect directly (Fig 18b).
    auto make_bus_port = [this, &bus](const std::string &label) {
        busPorts_.push_back(std::make_unique<mem::BusPort>(
            bus, nullptr, namePrefix_ + label));
        return busPorts_.back().get();
    };

    mem::MemPort *ptw_port = nullptr;
    if (config_.sharedCache) {
        sharedCache_ = std::make_unique<mem::TimedCache>(
            namePrefix_ + "unitcache", config_.sharedCacheParams, mem,
            bus);
        markerPort_ = sharedCache_->addPort(nullptr, "marker");
        tracerPort_ = sharedCache_->addPort(nullptr, "tracer");
        spillPort_ = sharedCache_->addPort(nullptr, "markQueue");
        readerPort_ = sharedCache_->addPort(nullptr, "reader");
        ptw_port = sharedCache_->addPort(nullptr, "ptw");
    } else {
        ptwCache_ = std::make_unique<mem::TimedCache>(
            namePrefix_ + "ptwcache", config_.ptwCacheParams, mem,
            bus);
        markerPort_ = make_bus_port("marker");
        tracerPort_ = make_bus_port("tracer");
        spillPort_ = make_bus_port("markQueue");
        readerPort_ = make_bus_port("reader");
        ptw_port = ptwCache_->addPort(nullptr, "ptw");
    }
    blockReaderPort_ = make_bus_port("blockReader");
    for (unsigned i = 0; i < config_.numSweepers; ++i) {
        sweeperPorts_.push_back(
            make_bus_port("sweeper" + std::to_string(i)));
    }

    ptw_ = std::make_unique<mem::Ptw>(namePrefix_ + "ptw", config_.ptw,
                                      pageTable_, ptw_port);

    // Traversal unit.
    markQueue_ = std::make_unique<MarkQueue>(
        namePrefix_ + "markQueue", config_, spillPort_,
        runtime::HeapLayout::spillBase, runtime::HeapLayout::spillSize);
    traceQueue_ =
        std::make_unique<TraceQueue>(config_.tracerQueueEntries);
    marker_ = std::make_unique<Marker>(namePrefix_ + "marker", config_,
                                       *markQueue_, *traceQueue_,
                                       markerPort_, *ptw_);
    tracer_ = std::make_unique<Tracer>(namePrefix_ + "tracer", config_,
                                       *traceQueue_, *markQueue_,
                                       tracerPort_, *ptw_);
    tracer_->setMarker(marker_.get());
    rootReader_ = std::make_unique<RootReader>(
        namePrefix_ + "rootReader", config_, *markQueue_, readerPort_,
        *ptw_);
    reclamation_ = std::make_unique<ReclamationUnit>(
        namePrefix_ + "reclamation", config_, blockReaderPort_,
        sweeperPorts_, *ptw_);

    // Bind each port to its unit now that the units exist. The marker
    // and the tracer sleep while their port is full, so they own
    // theirs: the port pokes them when a pop frees a slot.
    markerPort_->bind(marker_.get(), marker_.get());
    tracerPort_->bind(tracer_.get(), tracer_.get());
    spillPort_->bind(markQueue_.get(), nullptr);
    readerPort_->bind(rootReader_.get(), nullptr);
    blockReaderPort_->bind(reclamation_.get(), nullptr);
    for (unsigned i = 0; i < config_.numSweepers; ++i) {
        sweeperPorts_[i]->bind(reclamation_->sweepers()[i].get(), nullptr);
    }
    ptw_port->bind(ptw_.get(), nullptr);

    // Clock the units. Evaluation order: consumers before producers
    // is not required (queues decouple); Soc::seal() adds the bus and
    // memory after the last device's units.
    units_ = {rootReader_.get(), marker_.get(), tracer_.get(),
              markQueue_.get(), reclamation_.get()};
    for (auto &sweeper : reclamation_->sweepers()) {
        units_.push_back(sweeper.get());
    }
    units_.push_back(ptw_.get());
    if (sharedCache_) {
        units_.push_back(sharedCache_.get());
    }
    if (ptwCache_) {
        units_.push_back(ptwCache_.get());
    }
    for (Clocked *c : units_) {
        sys.add(c);
    }

    // Wakeup-caching contract (event kernel): every component above
    // pokes itself from its external entry points (sendRequest,
    // onResponse, enqueue/dequeue, requestWalk, start/extend, assign),
    // and producers poke the specific consumer a hand-off can unblock
    // (the bus/cache poke a port's owner when a pop raises canSend,
    // the mark queue pokes the marker when entries become
    // dequeueable and the tracer when a spill completion frees room,
    // the tracer pokes the marker when a trace-queue pop raises
    // canPush). What remains to declare are the coarse
    // cross-reads — state a component's nextWakeup() inspects that
    // another component's *tick* mutates without calling into it:
    //  - marker and tracer wait on PTW walk completions and launch
    //    slots (ptw.canRequest), and on mark-queue state the queue's
    //    own spill tick shuffles (canDequeue, throttle).
    //  - tracer polls the trace queue and markQueue.throttle, which
    //    the marker's tick feeds and drains.
    //  - rootReader and the sweepers wait on PTW walk completions.
    //  - reclamation polls sweeper->idle() and PTW walk completions.
    // markQueue, ptw and the caches read only their own state, so
    // their entry-point pokes alone keep them fresh. Soc::seal()
    // declares the bus and memory edges.
    sys.declareWakeupInputs(marker_.get(), {markQueue_.get(), ptw_.get()});
    sys.declareWakeupInputs(
        tracer_.get(), {marker_.get(), markQueue_.get(), ptw_.get()});
    if (!config_.decoupledTracer && config_.sharedCache) {
        // Coupled-pipeline ablation: the tracer also polls the
        // marker's in-flight reads, which drop inside the cache tick
        // that delivers the marker's response (the bus edge waits
        // for Soc::seal()).
        sys.declareWakeupInputs(tracer_.get(), {sharedCache_.get()});
    }
    markQueue_->setConsumer(marker_.get());
    markQueue_->setProducer(tracer_.get());
    sys.declareWakeupInputs(rootReader_.get(), {ptw_.get()});
    sys.declareWakeupInputs(reclamation_.get(), {ptw_.get()});
    for (auto &sweeper : reclamation_->sweepers()) {
        sys.declareWakeupInputs(sweeper.get(), {ptw_.get()});
        sys.declareWakeupInputs(reclamation_.get(), {sweeper.get()});
    }
    sys.declareWakeupInputs(markQueue_.get(), {});
    sys.declareWakeupInputs(ptw_.get(), {});
    if (sharedCache_) {
        sys.declareWakeupInputs(sharedCache_.get(), {});
    }
    if (ptwCache_) {
        sys.declareWakeupInputs(ptwCache_.get(), {});
    }

    // Class caching for the cycle profiler: a unit's classifier reads
    // its wakeup inputs, state its entry points poke, and its memory
    // port only on cycles it ticks — except that a sweeper also asks
    // whether the reclamation unit (whose done() reads every sweeper)
    // still has blocks to hand out.
    for (Clocked *c : units_) {
        sys.declareClassInputs(c, {});
    }
    for (auto &sweeper : reclamation_->sweepers()) {
        sys.declareClassInputs(sweeper.get(), {reclamation_.get()});
    }

    // Each group carries its children (the TLBs) along.
    const std::string &p = statsPrefix_;
    stats_.add(p + ".rootReader", rootReader_->stats());
    stats_.add(p + ".marker", marker_->stats());
    stats_.add(p + ".tracer", tracer_->stats());
    stats_.add(p + ".markQueue", markQueue_->stats());
    stats_.add(p + ".traceQueue", traceQueue_->stats());
    stats_.add(p + ".reclamation", reclamation_->stats());
    for (std::size_t i = 0; i < reclamation_->sweepers().size(); ++i) {
        stats_.add(p + ".sweeper" + std::to_string(i),
                   reclamation_->sweepers()[i]->stats());
    }
    stats_.add(p + ".ptw", ptw_->stats());
    if (sharedCache_) {
        stats_.add(p + ".unitcache", sharedCache_->stats());
    }
    if (ptwCache_) {
        stats_.add(p + ".ptwcache", ptwCache_->stats());
    }
}

HwgcDevice::~HwgcDevice()
{
    soc_.detachObservers();
}

void
HwgcDevice::configure(const runtime::Heap &heap)
{
    regs_.pageTableBase = heap.pageTable().root();
    regs_.hwgcSpaceBase = heap.hwgcSpaceBase();
    regs_.rootCount = heap.publishedRootCount();
    regs_.blockTableBase = heap.blockTableBase();
    regs_.blockCount = heap.blocks().size();
    regs_.spillBase = heap.spillBase();
    regs_.spillBytes = heap.spillBytes();

    // Retarget the translation and spill plumbing at this heap — the
    // driver-level half of the §VII context switch. For the classic
    // one-device/one-heap setup these re-program the same values.
    ptw_->setPageTable(heap.pageTable());
    markQueue_->setSpillRegion(regs_.spillBase, regs_.spillBytes);

    if (ownedSoc_) {
        // A standalone run resumes at its first configure()
        // (--checkpoint-in=); a shared SoC's owner resumes it.
        ownedSoc_->resume();
    }
}

Tick
HwgcDevice::runUntil(const char *phase)
{
    const Tick start = system().now();
    for (;;) {
        // A due --checkpoint-at= image pauses the kernel at that exact
        // inter-cycle boundary, mid-phase; the split run is
        // bit-identical to an uninterrupted one (see
        // System::runUntilIdleStop).
        const System::StopReason reason =
            system().runUntilIdleStop(soc_.checkpointDue());
        if (reason == System::StopReason::Stopped) {
            soc_.writeDueCheckpoint();
            continue;
        }
        panic_if(reason == System::StopReason::Budget,
                 "%s phase deadlocked (cycle budget exhausted)", phase);
        return system().now() - start;
    }
}

void
HwgcDevice::startMark()
{
    panic_if(regs_.rootCount == 0 && regs_.hwgcSpaceBase == 0,
             "device not configured");
    // A restored mid-mark checkpoint left the status register at
    // Marking with the units already in flight: resume, don't restart.
    if (regs_.status == MmioRegs::Marking) {
        return;
    }
    regs_.status = MmioRegs::Marking;
    rootReader_->start(regs_.hwgcSpaceBase, regs_.rootCount);
}

bool
HwgcDevice::unitsDrained() const
{
    return std::none_of(units_.begin(), units_.end(),
                        [](const Clocked *c) { return c->busy(); });
}

bool
HwgcDevice::markDone() const
{
    return markQueue_->empty() && marker_->idle() && tracer_->idle() &&
        rootReader_->done() && unitsDrained();
}

HwPhaseResult
HwgcDevice::finishMark()
{
    panic_if(!markDone(), "mark phase ended with residual work");
    HwPhaseResult result;
    result.objectsMarked = marker_->newlyMarked();
    result.refsTraced = tracer_->refsEnqueued();
    regs_.status = MmioRegs::Idle;
    return result;
}

HwPhaseResult
HwgcDevice::runMark()
{
    // A device restored mid-sweep finished its mark before the image
    // was written: there is no mark left to run, and runSweep()
    // resumes the sweep.
    if (regs_.status == MmioRegs::Sweeping) {
        return {};
    }
    const bool resuming = regs_.status == MmioRegs::Marking;
    const Tick start = system().now();
    DPRINTF(start, "Device", "%s: mark phase %s, %llu roots",
            statsPrefix_.c_str(), resuming ? "resume" : "start",
            (unsigned long long)regs_.rootCount);
    startMark();
    telemetry::CycleProfiler *profiler = soc_.profiler();
    if (profiler) {
        profiler->beginPhase("mark");
    }

    const Tick cycles = runUntil("mark");
    if (profiler) {
        profiler->endPhase();
    }
    HwPhaseResult result = finishMark();
    result.cycles = cycles;

    const Tick end = system().now();
    DPRINTF(end, "Device", "%s: mark phase done, %llu marked",
            statsPrefix_.c_str(),
            (unsigned long long)result.objectsMarked);
    soc_.flushTrace();
    telemetry::TraceWriter &tw = telemetry::TraceWriter::global();
    if (tw.enabled()) {
        const Tick roots_done = rootReader_->doneAt();
        tw.completeSpan(statsPrefix_, "rootScan", start,
                        roots_done != 0 ? roots_done : end);
        tw.completeSpan(statsPrefix_, "mark", start, end);
    }
    soc_.writeSettledCheckpoint();
    return result;
}

void
HwgcDevice::startSweep()
{
    if (regs_.status == MmioRegs::Sweeping) {
        return; // Restored mid-sweep: resume, don't restart.
    }
    regs_.status = MmioRegs::Sweeping;
    reclamation_->start(regs_.blockTableBase, regs_.blockCount);
}

bool
HwgcDevice::sweepDone() const
{
    return reclamation_->done() && unitsDrained();
}

HwPhaseResult
HwgcDevice::finishSweep()
{
    panic_if(!sweepDone(), "sweep phase ended with residual work");
    HwPhaseResult result;
    result.cellsFreed = reclamation_->cellsFreed();
    regs_.status = MmioRegs::Idle;
    return result;
}

HwPhaseResult
HwgcDevice::runSweep()
{
    const bool resuming = regs_.status == MmioRegs::Sweeping;
    const Tick start = system().now();
    DPRINTF(start, "Device", "%s: sweep phase %s, %llu blocks",
            statsPrefix_.c_str(), resuming ? "resume" : "start",
            (unsigned long long)regs_.blockCount);
    startSweep();
    telemetry::CycleProfiler *profiler = soc_.profiler();
    if (profiler) {
        profiler->beginPhase("sweep");
    }

    const Tick cycles = runUntil("sweep");
    if (profiler) {
        profiler->endPhase();
    }
    HwPhaseResult result = finishSweep();
    result.cycles = cycles;

    const Tick end = system().now();
    DPRINTF(end, "Device", "%s: sweep phase done, %llu freed",
            statsPrefix_.c_str(),
            (unsigned long long)result.cellsFreed);
    soc_.flushTrace();
    telemetry::TraceWriter &tw = telemetry::TraceWriter::global();
    if (tw.enabled()) {
        tw.completeSpan(statsPrefix_, "sweep", start, end);
    }
    soc_.writeSettledCheckpoint();
    return result;
}

HwPhaseResult
HwgcDevice::collect()
{
    HwPhaseResult mark = runMark();
    const HwPhaseResult sweep = runSweep();
    mark.cycles += sweep.cycles;
    mark.cellsFreed = sweep.cellsFreed;
    return mark;
}

void
HwgcDevice::resetPhaseState()
{
    markQueue_->reset();
    marker_->reset();
    tracer_->reset();
    rootReader_->reset();
    reclamation_->reset();
    ptw_->l2Tlb().flush();
    // A shared (fleet) memory backend stays warm: peer devices may be
    // mid-phase, and the context switch only flushes unit state.
    if (ownedSoc_) {
        ownedSoc_->memory().resetTimingState();
    }
}

void
HwgcDevice::resetStats()
{
    // A standalone device owns its whole System, bus and memory
    // included; a fleet device owns its units.
    for (Clocked *c : ownedSoc_ ? system().components() : units_) {
        c->resetStats();
    }
    traceQueue_->resetStats();
}

} // namespace hwgc::core
