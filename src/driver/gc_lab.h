/**
 * @file
 * The experiment harness shared by every bench, example and
 * integration test.
 *
 * GcLab reproduces the paper's methodology (§VI-A): build a
 * benchmark-profile heap, then for every GC pause of the run execute
 * the *same* pause on both collectors — snapshot the heap image, run
 * the software collector (CPU cost model), restore the snapshot, run
 * the hardware unit, optionally verify both against the reachability
 * oracle — then let the mutator churn the heap and continue from the
 * hardware collector's result. Results are reported per pause and
 * averaged "across all GC pauses during the benchmark execution".
 */

#ifndef HWGC_DRIVER_GC_LAB_H
#define HWGC_DRIVER_GC_LAB_H

#include <memory>
#include <vector>

#include "core/hwgc_device.h"
#include "cpu/core_model.h"
#include "gc/sw_collector.h"
#include "workload/dacapo.h"

namespace hwgc::driver
{

/** Lab-wide configuration. */
struct LabConfig
{
    core::HwgcConfig hwgc;
    cpu::CoreParams core;
    runtime::HeapParams heap;

    bool runSw = true;   //!< Execute the CPU baseline each pause.
    bool runHw = true;   //!< Execute the accelerator each pause.
    bool verify = false; //!< Oracle-check marks + swept heap.
};

/** Snapshot of interesting hardware counters after one pause. */
struct HwCounters
{
    std::uint64_t tracerRequests = 0;
    std::uint64_t spillWrites = 0;
    std::uint64_t spillReads = 0;
    std::uint64_t entriesSpilled = 0;
    std::uint64_t markerTlbMisses = 0;
    std::uint64_t tracerTlbMisses = 0;
    std::uint64_t ptwWalks = 0;
    std::uint64_t markCacheHits = 0;
    std::uint64_t busBusyCycles = 0;
    std::uint64_t busCycles = 0;
    std::uint64_t throttledGrants = 0; //!< Grants the bus throttle starved.
    std::uint64_t dramBytes = 0;
    std::uint64_t dramReads = 0;
    std::uint64_t dramWrites = 0;
    std::uint64_t dramActivates = 0;
};

/** Results of one GC pause, on both engines. */
struct PauseResult
{
    // Software (CPU) side.
    Tick swMarkCycles = 0;
    Tick swSweepCycles = 0;
    std::uint64_t swDramBytes = 0;
    std::uint64_t swDramReads = 0;
    std::uint64_t swDramWrites = 0;
    std::uint64_t swDramActivates = 0;

    // Hardware side.
    Tick hwMarkCycles = 0;
    Tick hwSweepCycles = 0;
    HwCounters hw;

    // Workload facts (identical for both engines by construction).
    std::uint64_t objectsMarked = 0;
    std::uint64_t cellsFreed = 0;
    std::uint64_t liveObjects = 0;
    std::uint64_t blocks = 0;
};

/** The lab. */
class GcLab
{
  public:
    GcLab(const workload::BenchmarkProfile &profile,
          const LabConfig &config = {});

    /** Runs every pause of the profile; returns per-pause results. */
    const std::vector<PauseResult> &run();

    /** Runs @p pauses pauses only (for quick sweeps). */
    const std::vector<PauseResult> &run(unsigned pauses);

    /** @name Aggregates over the completed run @{ */
    double avgSwMarkCycles() const;
    double avgSwSweepCycles() const;
    double avgHwMarkCycles() const;
    double avgHwSweepCycles() const;
    /** @} */

    /** @name Component access (valid after construction) @{ */
    runtime::Heap &heap() { return *heap_; }
    core::HwgcDevice &device() { return *device_; }
    cpu::CoreModel &core() { return *core_; }
    mem::Dram *cpuDram() { return cpuDramPtr_; }
    workload::GraphBuilder &builder() { return *builder_; }
    const std::vector<PauseResult> &results() const { return results_; }
    const workload::BenchmarkProfile &profile() const { return profile_; }
    /** @} */

  private:
    PauseResult runOnePause();

    workload::BenchmarkProfile profile_;
    LabConfig config_;

    mem::PhysMem mem_;
    std::unique_ptr<runtime::Heap> heap_;
    std::unique_ptr<workload::GraphBuilder> builder_;

    // CPU side (atomic charging).
    std::unique_ptr<mem::MemDevice> cpuMemory_;
    mem::Dram *cpuDramPtr_ = nullptr;
    std::unique_ptr<cpu::CoreModel> core_;
    std::unique_ptr<gc::SwCollector> swCollector_;

    // Hardware side.
    std::unique_ptr<core::HwgcDevice> device_;

    // Telemetry registration of the CPU side (the device registers
    // its own components under its own prefix).
    telemetry::StatsGroups cpuStats_;

    std::vector<PauseResult> results_;
};

} // namespace hwgc::driver

#endif // HWGC_DRIVER_GC_LAB_H
