/**
 * @file
 * Top-down cycle-accounting profiler (DESIGN.md §10).
 *
 * A CycleProfiler is a KernelObserver that, for every cycle the
 * kernel executes or fast-forwards over, attributes each registered
 * component's cycle to a class (Clocked::cycleClass()) and accrues it
 * into per-component stats::Vectors — one for the whole run plus one
 * per GC phase. The accounting identity
 *
 *     busy + Σ stalls + idle == observed cycles
 *
 * holds per component by construction: every observed cycle is
 * attributed exactly once (fast-forward gaps classify once at the gap
 * start and weight by the gap width, which is exact because every
 * component's class is constant across a gap — see fastForwarded()).
 *
 * Classification is incremental: a pass re-classifies only the
 * components whose class can have changed (System::reclassify()), and
 * every other component keeps accruing its last class as an open run.
 * The runs are published into the vectors at phase boundaries and
 * before any read, so the vectors equal those of classifying every
 * component on every observed cycle, as the dense kernel does.
 *
 * Everything here is observational. Classification reads const state
 * only, the accrued vectors live outside checkpoints, stats resets and
 * the config signature, and the profiler chains to any previously
 * attached observer — so profiling on/off is bit-identical in cycles,
 * checkpoints and core statistics (tests/test_profiler.cc enforces
 * this).
 */

#ifndef HWGC_SIM_PROFILER_H
#define HWGC_SIM_PROFILER_H

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "sim/clocked.h"
#include "sim/cycle_class.h"
#include "sim/stats.h"
#include "sim/telemetry.h"

namespace hwgc::telemetry
{

/** See file header. */
class CycleProfiler : public KernelObserver
{
  public:
    /**
     * Snapshots @p system's current component list (all components
     * must already be registered) and registers one stats group per
     * component under "<stats_prefix>.profile.<component>", so the
     * attribution lands in the normal stats-JSON export. The same
     * prefix names the Perfetto counter tracks.
     */
    CycleProfiler(System &system, std::string stats_prefix);

    CycleProfiler(const CycleProfiler &) = delete;
    CycleProfiler &operator=(const CycleProfiler &) = delete;

    /**
     * Forwards every observer callback to @p chain after accounting.
     * System holds a single observer slot; this keeps the activity
     * tracer working while the profiler is attached.
     */
    void setChain(KernelObserver *chain) { chain_ = chain; }

    // KernelObserver interface.
    void cycleExecuted(Tick now, std::uint64_t active_mask) override;
    void fastForwarded(Tick from, Tick to) override;

    /** @name Phase attribution
     * Called by the device at GC phase boundaries ("rootScan",
     * "mark", "sweep"). Cycles outside any phase accrue only into
     * the per-run totals. Also emits the per-class Perfetto counter
     * tracks (0 at phase start, the phase's aggregate at phase end),
     * giving the weighted flamegraph-style timeline view. @{ */
    void beginPhase(const std::string &name);
    void endPhase();
    /** @} */

    /**
     * Human-readable bottleneck report: per phase and for the whole
     * run, the aggregated class mix plus each component's top stall
     * causes. @p top_n bounds the stall classes listed per line.
     */
    void report(std::FILE *out, std::size_t top_n = 3) const;

    /** @name Programmatic access (tests, benches) @{ */

    std::size_t numComponents() const { return comps_.size(); }
    const std::string &componentName(std::size_t i) const;

    /** Whole-run cycles of class @p c for component @p i. */
    std::uint64_t cycles(std::size_t i, CycleClass c) const;

    /** Whole-run cycles component @p i accounted across all classes
     *  (the identity says this equals observedCycles()). */
    std::uint64_t accounted(std::size_t i) const;

    /** Cycles this profiler observed (executed + fast-forwarded). */
    std::uint64_t observedCycles() const { return observed_; }

    /** The class component @p i was attributed for the last observed
     *  cycle or gap (an audit compares it with a fresh cycleClass()). */
    CycleClass lastClass(std::size_t i) const { return comps_.at(i).cls; }

    /** Whole-run cycles of class @p c summed over all components. */
    std::uint64_t aggregate(CycleClass c) const;

    /** Like aggregate(), restricted to phase @p phase (0 if the
     *  phase never ran). */
    std::uint64_t phaseAggregate(const std::string &phase,
                                 CycleClass c) const;

    /** The stall class with the most whole-run aggregated cycles
     *  (ties resolve to the lower enum value). */
    CycleClass topStallClass() const;

    /** topStallClass() restricted to phase @p phase. */
    CycleClass topStallClass(const std::string &phase) const;

    /** Phase names in first-use order. */
    const std::vector<std::string> &phases() const { return phaseNames_; }
    /** @} */

  private:
    struct PerComponent
    {
        PerComponent(const Clocked *c,
                     const std::vector<std::string> &labels)
            : clocked(c), group(std::make_unique<stats::Group>("profile")),
              total(*group, "total", labels)
        {}

        const Clocked *clocked;
        std::unique_ptr<stats::Group> group; //!< Registered: never moves.
        stats::Vector total;
        /** One vector per entry of phaseNames_, same order. Owned
         *  behind unique_ptr: the group keeps raw pointers. */
        std::vector<std::unique_ptr<stats::Vector>> phase;
        /** The open run: cycles observed since observed_ was @p since
         *  are of class @p cls and not yet in the vectors. */
        CycleClass cls = CycleClass::Idle;
        std::uint64_t since = 0;
    };

    /**
     * Re-classifies the components in @p stale at @p now, closing
     * the run of each whose class changed, then counts @p weight
     * observed cycles.
     */
    void observe(Tick now, std::uint64_t stale, std::uint64_t weight);

    /** Adds @p pc's open run to its vectors and restarts it empty. */
    void closeRun(PerComponent &pc);

    /** Closes every open run, so the vectors are exact. */
    void publish();

    /** Cycles of class @p c of @p pc in phase @p phase_idx (-1 =
     *  whole run), the open run included. */
    std::uint64_t count(const PerComponent &pc, int phase_idx,
                        CycleClass c) const;

    /** aggregate() over phase @p phase_idx (-1 = whole run). */
    std::uint64_t aggregateIn(int phase_idx, CycleClass c) const;
    int phaseIndex(const std::string &name) const;
    CycleClass topStallIn(int phase_idx) const;

    System &system_;
    std::string prefix_;
    std::vector<PerComponent> comps_;
    std::vector<std::string> phaseNames_;
    int currentPhase_ = -1; //!< Index into phaseNames_, -1 = none.
    std::uint64_t observed_ = 0;
    std::uint64_t mask_ = 0; //!< The System bits of comps_.
    KernelObserver *chain_ = nullptr;
    /** The components' "profile" groups. Declared last: retiring them
     *  runs their pre-dump hook, which publishes from comps_. */
    StatsGroups groups_;
};

} // namespace hwgc::telemetry

#endif // HWGC_SIM_PROFILER_H
