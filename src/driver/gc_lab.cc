/**
 * @file
 * Experiment harness implementation.
 */

#include "gc_lab.h"

#include "gc/verifier.h"

namespace hwgc::driver
{

GcLab::GcLab(const workload::BenchmarkProfile &profile,
             const LabConfig &config)
    : profile_(profile), config_(config)
{
    heap_ = std::make_unique<runtime::Heap>(mem_, config_.heap);
    builder_ = std::make_unique<workload::GraphBuilder>(*heap_,
                                                        profile_.graph);
    builder_->build();

    // CPU-side memory device (same model class as the unit's, so the
    // comparison is apples to apples).
    cpuMemory_ = core::makeMemDevice(config_.hwgc, mem_, "cpu.");
    cpuDramPtr_ = dynamic_cast<mem::Dram *>(cpuMemory_.get());
    core_ = std::make_unique<cpu::CoreModel>(
        "rocket", config_.core, mem_, heap_->pageTable(), *cpuMemory_);
    swCollector_ = std::make_unique<gc::SwCollector>(*heap_, *core_);

    device_ = std::make_unique<core::HwgcDevice>(
        mem_, heap_->pageTable(), config_.hwgc);

    // Register the CPU baseline's stats beside the device's; the
    // core's group carries its caches and TLB.
    const std::string prefix =
        telemetry::StatsRegistry::global().uniquePrefix("system.cpu");
    cpuStats_.add(prefix + ".core", core_->stats());
    cpuStats_.add(prefix + ".memory", cpuMemory_->stats());
}

PauseResult
GcLab::runOnePause()
{
    PauseResult result;

    heap_->clearAllMarks();
    heap_->publishRoots();
    result.liveObjects = heap_->liveObjects();
    result.blocks = heap_->blocks().size();

    // A snapshot is only needed to replay the pause on both engines.
    mem::PhysMem::Snapshot snap;
    if (config_.runSw && config_.runHw) {
        snap = mem_.snapshot();
    }

    if (config_.runSw) {
        core_->resetCycles();
        core_->resetStats();
        core_->flushMicroarchState();
        cpuMemory_->resetStats();
        cpuMemory_->resetTimingState();
        const gc::GcResult sw = swCollector_->collect();
        result.swMarkCycles = sw.markCycles;
        result.swSweepCycles = sw.sweepCycles;
        result.objectsMarked = sw.objectsMarked;
        result.cellsFreed = sw.cellsFreed;
        if (cpuDramPtr_ != nullptr) {
            result.swDramBytes = cpuDramPtr_->bytesRead().value() +
                cpuDramPtr_->bytesWritten().value();
            result.swDramReads = cpuDramPtr_->numReads().value();
            result.swDramWrites = cpuDramPtr_->numWrites().value();
            result.swDramActivates = cpuDramPtr_->numActivates().value();
        }
        if (config_.verify) {
            const auto marks = gc::verifyMarks(*heap_);
            panic_if(!marks.ok, "SW mark verification: %s",
                     marks.error.c_str());
            const auto swept = gc::verifySweptHeap(*heap_);
            panic_if(!swept.ok, "SW sweep verification: %s",
                     swept.error.c_str());
        }
        if (config_.runHw) {
            mem_.restore(snap); // Replay the same pause on the unit.
        }
    }

    if (config_.runHw) {
        device_->resetPhaseState();
        device_->resetStats();
        device_->configure(*heap_);
        const core::HwPhaseResult mark = device_->runMark();
        const core::HwPhaseResult sweep = device_->runSweep();
        result.hwMarkCycles = mark.cycles;
        result.hwSweepCycles = sweep.cycles;
        result.objectsMarked = mark.objectsMarked;
        result.cellsFreed = sweep.cellsFreed;

        HwCounters &hw = result.hw;
        hw.tracerRequests = device_->tracer().requestsIssued();
        hw.spillWrites = device_->markQueue().spillWriteRequests();
        hw.spillReads = device_->markQueue().spillReadRequests();
        hw.entriesSpilled = device_->markQueue().entriesSpilled();
        hw.markerTlbMisses = device_->marker().tlb().misses();
        hw.tracerTlbMisses = device_->tracer().tlb().misses();
        hw.ptwWalks = device_->ptw().walksStarted();
        hw.markCacheHits = device_->marker().markCacheHits();
        hw.busBusyCycles = device_->bus().busBusyCycles();
        hw.busCycles = device_->bus().observedCycles();
        hw.throttledGrants = device_->bus().throttledGrants();
        if (device_->dram() != nullptr) {
            hw.dramBytes = device_->dram()->bytesRead().value() +
                device_->dram()->bytesWritten().value();
            hw.dramReads = device_->dram()->numReads().value();
            hw.dramWrites = device_->dram()->numWrites().value();
            hw.dramActivates = device_->dram()->numActivates().value();
        }

        if (config_.verify) {
            const auto marks = gc::verifyMarks(*heap_);
            panic_if(!marks.ok, "HW mark verification: %s",
                     marks.error.c_str());
            const auto swept = gc::verifySweptHeap(*heap_);
            panic_if(!swept.ok, "HW sweep verification: %s",
                     swept.error.c_str());
        }
    }

    panic_if(!config_.runSw && !config_.runHw,
             "lab configured to run neither collector");

    // The mutator continues from whichever collector ran last.
    heap_->onAfterSweep();
    builder_->mutate(profile_.churnPerGC);
    return result;
}

const std::vector<PauseResult> &
GcLab::run()
{
    return run(profile_.numGCs);
}

const std::vector<PauseResult> &
GcLab::run(unsigned pauses)
{
    for (unsigned i = 0; i < pauses; ++i) {
        results_.push_back(runOnePause());
    }
    return results_;
}

namespace
{

double
average(const std::vector<PauseResult> &results, Tick PauseResult::*field)
{
    if (results.empty()) {
        return 0.0;
    }
    double sum = 0.0;
    for (const auto &r : results) {
        sum += double(r.*field);
    }
    return sum / double(results.size());
}

} // namespace

double
GcLab::avgSwMarkCycles() const
{
    return average(results_, &PauseResult::swMarkCycles);
}

double
GcLab::avgSwSweepCycles() const
{
    return average(results_, &PauseResult::swSweepCycles);
}

double
GcLab::avgHwMarkCycles() const
{
    return average(results_, &PauseResult::hwMarkCycles);
}

double
GcLab::avgHwSweepCycles() const
{
    return average(results_, &PauseResult::hwSweepCycles);
}

} // namespace hwgc::driver
