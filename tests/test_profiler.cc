/**
 * @file
 * Cycle-accounting profiler tests (DESIGN.md §10):
 *
 *  1. The accounting identity `busy + Σstalls + idle == observed
 *     cycles` holds for every component on every modeled
 *     configuration of the determinism matrix, under both kernels —
 *     classification is a pure function of architectural state, so
 *     no kernel can over- or under-count.
 *  2. Profiling is observational: a profiled run is bit-identical to
 *     an unprofiled run in cycle counts and every core statistic.
 *  3. Attribution tracks the machine: a config whose bottleneck is
 *     known (bandwidth throttle, tiny mark queue) shifts the top
 *     stall class to the matching cause.
 *  4. The progress watchdog dumps diagnostics and aborts instead of
 *     hanging when a run exceeds its host-time budget.
 *  5. The class contract: under the event kernel, the profiler's
 *     incremental classification attributes every component the
 *     class a fresh cycleClass() returns, on every observed cycle.
 */

#include <gtest/gtest.h>

#include <array>
#include <cinttypes>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "driver/gc_lab.h"
#include "instance_ids.h"
#include "options_guard.h"
#include "sim/cycle_class.h"
#include "sim/profiler.h"
#include "sim/telemetry.h"

namespace hwgc
{
namespace
{

/** Runs the smoke profile with the profiler attached and returns the
 *  lab so the caller can interrogate the profiler before teardown. */
std::unique_ptr<driver::GcLab>
profiledRun(core::HwgcConfig config,
            workload::BenchmarkProfile profile = workload::smokeProfile())
{
    driver::LabConfig lab_config;
    lab_config.runSw = false;
    lab_config.hwgc = config;
    lab_config.heap.layout = config.layout;
    telemetry::StatsRegistry::global().clearRetired();
    auto lab = std::make_unique<driver::GcLab>(profile, lab_config);
    lab->run();
    return lab;
}

// ---------------------------------------------------------------------
// (1) The accounting identity, config matrix x kernel matrix.
// ---------------------------------------------------------------------

void
expectIdentityHolds(core::HwgcConfig config)
{
    struct Case
    {
        const char *name;
        KernelMode kernel;
    };
    static constexpr Case cases[] = {
        {"dense", KernelMode::Dense},
        {"event", KernelMode::Event},
    };
    OptionsGuard guard;
    telemetry::options().profile = true;
    for (const auto &c : cases) {
        SCOPED_TRACE(c.name);
        config.kernel = c.kernel;
        const auto lab = profiledRun(config);
        const telemetry::CycleProfiler *prof = lab->device().profiler();
        ASSERT_NE(prof, nullptr);
        ASSERT_GT(prof->observedCycles(), 0u);
        for (std::size_t i = 0; i < prof->numComponents(); ++i) {
            SCOPED_TRACE(prof->componentName(i));
            EXPECT_EQ(prof->accounted(i), prof->observedCycles());
        }
        // Phase attribution never invents cycles: per class, the
        // phase totals are bounded by the run total.
        for (std::size_t c = 0; c < numCycleClasses; ++c) {
            const auto cls = CycleClass(c);
            std::uint64_t phase_sum = 0;
            for (const auto &phase : prof->phases()) {
                phase_sum += prof->phaseAggregate(phase, cls);
            }
            EXPECT_LE(phase_sum, prof->aggregate(cls))
                << cycleClassName(cls);
        }
    }
}

TEST(ProfilerIdentity, BaselineDdr3)
{
    expectIdentityHolds(core::HwgcConfig{});
}

TEST(ProfilerIdentity, SharedCache)
{
    core::HwgcConfig config;
    config.sharedCache = true;
    expectIdentityHolds(config);
}

TEST(ProfilerIdentity, IdealMemory)
{
    core::HwgcConfig config;
    config.memModel = core::MemModel::Ideal;
    expectIdentityHolds(config);
}

TEST(ProfilerIdentity, SpillPressure)
{
    core::HwgcConfig config;
    config.markQueueEntries = 32;
    expectIdentityHolds(config);
}

TEST(ProfilerIdentity, BandwidthThrottle)
{
    core::HwgcConfig config;
    config.bus.throttleBytesPerCycle = 1.0;
    expectIdentityHolds(config);
}

TEST(ProfilerIdentity, TibLayout)
{
    core::HwgcConfig config;
    config.layout = runtime::Layout::Tib;
    expectIdentityHolds(config);
}

// ---------------------------------------------------------------------
// (2) Profiler on/off is bit-identical in cycles and core stats.
// ---------------------------------------------------------------------

/** Drops the "<prefix>.profile.<comp>" sections the profiler itself
 *  registers — they exist only in the profiled run by design; every
 *  *other* stat must match bit for bit. */
std::string
dropProfileSections(const std::string &dump)
{
    std::istringstream in(dump);
    std::ostringstream out;
    std::string line;
    bool skipping = false;
    while (std::getline(in, line)) {
        if (line.rfind("==========", 0) == 0) {
            skipping = line.find(".profile.") != std::string::npos;
        }
        if (!skipping) {
            out << line << '\n';
        }
    }
    return out.str();
}

TEST(ProfilerObservational, OnOffBitIdentical)
{
    struct Result
    {
        Tick hwMark = 0;
        Tick hwSweep = 0;
        std::uint64_t marked = 0;
        std::uint64_t freed = 0;
        std::string stats;
    };
    auto run = [](bool profile_on) {
        OptionsGuard guard;
        telemetry::options().profile = profile_on;
        const auto lab = profiledRun(core::HwgcConfig{});
        EXPECT_EQ(lab->device().profiler() != nullptr, profile_on);
        Result r;
        for (const auto &pause : lab->results()) {
            r.hwMark += pause.hwMarkCycles;
            r.hwSweep += pause.hwSweepCycles;
            r.marked += pause.objectsMarked;
            r.freed += pause.cellsFreed;
        }
        std::ostringstream os;
        telemetry::StatsRegistry::global().dump(os);
        r.stats =
            normalizeInstanceIds(dropProfileSections(os.str()));
        return r;
    };
    const Result off = run(false);
    const Result on = run(true);
    EXPECT_EQ(off.hwMark, on.hwMark);
    EXPECT_EQ(off.hwSweep, on.hwSweep);
    EXPECT_EQ(off.marked, on.marked);
    EXPECT_EQ(off.freed, on.freed);
    EXPECT_EQ(off.stats, on.stats);
}

// ---------------------------------------------------------------------
// (3) Known bottlenecks shift the top attribution.
// ---------------------------------------------------------------------

/** Component @p name's whole-run share of class @p cls. */
double
componentShare(const telemetry::CycleProfiler &prof,
               const std::string &name, CycleClass cls)
{
    for (std::size_t i = 0; i < prof.numComponents(); ++i) {
        if (prof.componentName(i) == name) {
            return double(prof.cycles(i, cls)) /
                   double(prof.accounted(i));
        }
    }
    ADD_FAILURE() << "no component named " << name;
    return 0.0;
}

TEST(ProfilerBottleneck, BandwidthThrottleShiftsMarkToDram)
{
    OptionsGuard guard;
    telemetry::options().profile = true;

    const auto baseline = profiledRun(core::HwgcConfig{});
    const double base_bus = componentShare(
        *baseline->device().profiler(), "bus", CycleClass::StallDram);
    const std::uint64_t base_dram_cycles =
        baseline->device().profiler()->phaseAggregate(
            "mark", CycleClass::StallDram);

    core::HwgcConfig throttled;
    throttled.bus.throttleBytesPerCycle = 0.25; // 0.25 GB/s cap.
    const auto lab = profiledRun(throttled);
    const telemetry::CycleProfiler &prof = *lab->device().profiler();

    // The capped machine is bandwidth-bound: DRAM stalls top the mark
    // phase, the bus spends nearly everything token-starved, and the
    // absolute DRAM-stall cycle count balloons with the longer run.
    EXPECT_EQ(prof.topStallClass("mark"), CycleClass::StallDram);
    EXPECT_GT(componentShare(prof, "bus", CycleClass::StallDram),
              base_bus + 0.2);
    EXPECT_GT(prof.phaseAggregate("mark", CycleClass::StallDram),
              base_dram_cycles);
}

TEST(ProfilerBottleneck, TinyMarkQueueShiftsQueueToSpillDram)
{
    OptionsGuard guard;
    telemetry::options().profile = true;

    auto queue_dram_share = [](core::HwgcConfig config) {
        const auto lab = profiledRun(config);
        return componentShare(*lab->device().profiler(), "markQueue",
                              CycleClass::StallDram);
    };

    core::HwgcConfig tiny;
    tiny.markQueueEntries = 16; // Baseline: 1024.

    // Shrinking the on-chip queue forces constant spill/refill memory
    // round trips: the markQueue's cycles move into StallDram.
    EXPECT_GT(queue_dram_share(tiny),
              queue_dram_share(core::HwgcConfig{}) + 0.05);
}

// ---------------------------------------------------------------------
// (4) The watchdog aborts a wedged run with diagnostics.
// ---------------------------------------------------------------------

using WatchdogDeathTest = ::testing::Test;

TEST(WatchdogDeathTest, AbortsAndReportsWhenBudgetExceeded)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_DEATH(
        {
            // A budget no real run can meet: the first 64Ki-cycle
            // check fires, dumps the live report, and panics.
            telemetry::options().watchdogSecs = 1e-9;
            telemetry::options().profile = true;
            driver::LabConfig lab_config;
            lab_config.runSw = false;
            driver::GcLab lab(workload::smokeProfile(), lab_config);
            lab.run();
        },
        "watchdog");
}

// ---------------------------------------------------------------------
// (5) The class contract behind incremental classification.
// ---------------------------------------------------------------------

/**
 * Classifies every component on every observed cycle and weights a
 * fast-forward gap by its width — the profile as the dense kernel
 * attributes it. Chained behind the device's profiler, it sees each
 * pass after the profiler attributed it, and records the first
 * component whose fresh class differs from the profiler's.
 */
class ClassAudit : public KernelObserver
{
  public:
    ClassAudit(const System &system,
               const telemetry::CycleProfiler &profiler)
        : comps_(system.components()), profiler_(profiler),
          counts_(comps_.size())
    {}

    void
    cycleExecuted(Tick now, std::uint64_t) override
    {
        check(now, 1);
    }

    void
    fastForwarded(Tick from, Tick to) override
    {
        check(from, to - from);
    }

    /** Empty if every attribution matched, else the first miss. */
    const std::string &firstMismatch() const { return mismatch_; }

    /** Cycles of class @p c the audit counted for component @p i. */
    std::uint64_t
    cycles(std::size_t i, CycleClass c) const
    {
        return counts_[i][std::size_t(c)];
    }

  private:
    void
    check(Tick now, std::uint64_t weight)
    {
        for (std::size_t i = 0; i < comps_.size(); ++i) {
            const CycleClass fresh = comps_[i]->cycleClass(now);
            counts_[i][std::size_t(fresh)] += weight;
            const CycleClass cached = profiler_.lastClass(i);
            if (fresh != cached && mismatch_.empty()) {
                char buf[160];
                std::snprintf(buf, sizeof buf,
                              "cycle %" PRIu64 ": %s is %s, the profiler "
                              "attributed %s",
                              std::uint64_t(now), comps_[i]->name().c_str(),
                              cycleClassName(fresh),
                              cycleClassName(cached));
                mismatch_ = buf;
            }
        }
    }

    std::vector<Clocked *> comps_;
    const telemetry::CycleProfiler &profiler_;
    std::vector<std::array<std::uint64_t, numCycleClasses>> counts_;
    std::string mismatch_;
};

/** One pause of @p profile on @p config under the event kernel, the
 *  profiler audited cycle by cycle. */
void
expectAuditClean(const workload::BenchmarkProfile &profile,
                 core::HwgcConfig config = {})
{
    OptionsGuard guard;
    telemetry::options().profile = true;
    config.kernel = KernelMode::Event;
    driver::LabConfig lab_config;
    lab_config.runSw = false;
    lab_config.hwgc = config;
    lab_config.heap.layout = config.layout;
    telemetry::StatsRegistry::global().clearRetired();
    driver::GcLab lab(profile, lab_config);
    telemetry::CycleProfiler &prof = *lab.device().profiler();
    ClassAudit audit(lab.device().system(), prof);
    prof.setChain(&audit);
    lab.run(1);

    EXPECT_EQ(audit.firstMismatch(), "");
    for (std::size_t i = 0; i < prof.numComponents(); ++i) {
        for (std::size_t c = 0; c < numCycleClasses; ++c) {
            EXPECT_EQ(prof.cycles(i, CycleClass(c)),
                      audit.cycles(i, CycleClass(c)))
                << prof.componentName(i) << " "
                << cycleClassName(CycleClass(c));
        }
    }
}

TEST(ProfilerAudit, AvroraHeap)
{
    expectAuditClean(workload::dacapoProfile("avrora"));
}

TEST(ProfilerAudit, LuindexHeap)
{
    expectAuditClean(workload::dacapoProfile("luindex"));
}

TEST(ProfilerAudit, XalanHeap)
{
    expectAuditClean(workload::dacapoProfile("xalan"));
}

TEST(ProfilerAudit, BandwidthThrottle)
{
    core::HwgcConfig config;
    config.bus.throttleBytesPerCycle = 1.0;
    expectAuditClean(workload::dacapoProfile("avrora"), config);
}

TEST(ProfilerAudit, SharedCache)
{
    core::HwgcConfig config;
    config.sharedCache = true;
    expectAuditClean(workload::dacapoProfile("avrora"), config);
}

TEST(ProfilerAudit, TibLayout)
{
    core::HwgcConfig config;
    config.layout = runtime::Layout::Tib;
    expectAuditClean(workload::dacapoProfile("avrora"), config);
}

} // namespace
} // namespace hwgc
