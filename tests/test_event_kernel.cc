/**
 * @file
 * Event-kernel equivalence tests: the event-driven kernel must be a
 * cycle-exact, stat-exact drop-in for the dense reference kernel on
 * every configuration we model.
 */

#include <gtest/gtest.h>

#include "driver/gc_lab.h"
#include "sim/telemetry.h"

namespace hwgc
{
namespace
{

// ---------------------------------------------------------------------
// Device-level A/B: run the same pause sequence under both kernels and
// require every cycle count and statistic to match bit for bit.
// ---------------------------------------------------------------------

struct KernelSignature
{
    Tick hwMark = 0;
    Tick hwSweep = 0;
    std::uint64_t marked = 0;
    std::uint64_t freed = 0;
    std::uint64_t tracerRequests = 0;
    std::uint64_t spillWrites = 0;
    std::uint64_t spillReads = 0;
    std::uint64_t spilled = 0;
    std::uint64_t markerTlbMisses = 0;
    std::uint64_t tracerTlbMisses = 0;
    std::uint64_t ptwWalks = 0;
    std::uint64_t busBusyCycles = 0;
    std::uint64_t busCycles = 0;
    std::uint64_t dramBytes = 0;
    std::uint64_t dramReads = 0;
    std::uint64_t dramWrites = 0;
};

KernelSignature
runWithKernel(core::HwgcConfig config, KernelMode kernel,
              const workload::BenchmarkProfile &profile)
{
    config.kernel = kernel;
    driver::LabConfig lab_config;
    lab_config.runSw = false;
    lab_config.verify = true; // Oracle-check marks and the swept heap.
    lab_config.hwgc = config;
    lab_config.heap.layout = config.layout; // Heap must match device.
    driver::GcLab lab(profile, lab_config);
    lab.run();

    // Fold every pause in, so divergence in any pause is caught even
    // if a later pause happens to compensate.
    KernelSignature sig;
    for (const auto &pause : lab.results()) {
        sig.hwMark += pause.hwMarkCycles;
        sig.hwSweep += pause.hwSweepCycles;
        sig.marked += pause.objectsMarked;
        sig.freed += pause.cellsFreed;
        sig.tracerRequests += pause.hw.tracerRequests;
        sig.spillWrites += pause.hw.spillWrites;
        sig.spillReads += pause.hw.spillReads;
        sig.spilled += pause.hw.entriesSpilled;
        sig.markerTlbMisses += pause.hw.markerTlbMisses;
        sig.tracerTlbMisses += pause.hw.tracerTlbMisses;
        sig.ptwWalks += pause.hw.ptwWalks;
        sig.busBusyCycles += pause.hw.busBusyCycles;
        sig.busCycles += pause.hw.busCycles;
        sig.dramBytes += pause.hw.dramBytes;
        sig.dramReads += pause.hw.dramReads;
        sig.dramWrites += pause.hw.dramWrites;
    }
    return sig;
}

void
expectKernelsAgree(const core::HwgcConfig &config,
                   const workload::BenchmarkProfile &profile)
{
    const auto dense =
        runWithKernel(config, KernelMode::Dense, profile);
    const auto event =
        runWithKernel(config, KernelMode::Event, profile);
    EXPECT_EQ(dense.hwMark, event.hwMark);
    EXPECT_EQ(dense.hwSweep, event.hwSweep);
    EXPECT_EQ(dense.marked, event.marked);
    EXPECT_EQ(dense.freed, event.freed);
    EXPECT_EQ(dense.tracerRequests, event.tracerRequests);
    EXPECT_EQ(dense.spillWrites, event.spillWrites);
    EXPECT_EQ(dense.spillReads, event.spillReads);
    EXPECT_EQ(dense.spilled, event.spilled);
    EXPECT_EQ(dense.markerTlbMisses, event.markerTlbMisses);
    EXPECT_EQ(dense.tracerTlbMisses, event.tracerTlbMisses);
    EXPECT_EQ(dense.ptwWalks, event.ptwWalks);
    EXPECT_EQ(dense.busBusyCycles, event.busBusyCycles);
    EXPECT_EQ(dense.busCycles, event.busCycles);
    EXPECT_EQ(dense.dramBytes, event.dramBytes);
    EXPECT_EQ(dense.dramReads, event.dramReads);
    EXPECT_EQ(dense.dramWrites, event.dramWrites);
}

TEST(EventKernel, MatchesDenseOnBaselineDdr3)
{
    expectKernelsAgree(core::HwgcConfig{}, workload::smokeProfile());
}

TEST(EventKernel, MatchesDenseWithSharedCache)
{
    core::HwgcConfig config;
    config.sharedCache = true;
    expectKernelsAgree(config, workload::smokeProfile());
}

TEST(EventKernel, MatchesDenseOnIdealMemory)
{
    core::HwgcConfig config;
    config.memModel = core::MemModel::Ideal;
    expectKernelsAgree(config, workload::smokeProfile());
}

TEST(EventKernel, MatchesDenseUnderSpillPressure)
{
    core::HwgcConfig config;
    config.markQueueEntries = 32; // Force mark-queue spills.
    expectKernelsAgree(config, workload::smokeProfile());
}

TEST(EventKernel, MatchesDenseUnderBandwidthThrottle)
{
    core::HwgcConfig config;
    config.bus.throttleBytesPerCycle = 1.0;
    expectKernelsAgree(config, workload::smokeProfile());
}

TEST(EventKernel, MatchesDenseOnTibLayout)
{
    core::HwgcConfig config;
    config.layout = runtime::Layout::Tib;
    expectKernelsAgree(config, workload::smokeProfile());
}

TEST(EventKernel, MatchesDenseOnFig15Workload)
{
    // The bench_fig15 configuration is the default HwgcConfig; run it
    // on one DaCapo-profile heap (scaled to one pause to keep the
    // dense reference run affordable in a unit test).
    auto profile = workload::dacapoProfile("avrora");
    profile.numGCs = 1;
    expectKernelsAgree(core::HwgcConfig{}, profile);
}

// ---------------------------------------------------------------------
// Skipping really happens, and skipped spans are still accounted.
// ---------------------------------------------------------------------

/** Does one unit of work every @p period cycles, for five pulses. */
class Pulse : public Clocked
{
  public:
    explicit Pulse(Tick period) : Clocked("pulse"), period_(period) {}

    void
    tick(Tick now) override
    {
        ++tickCalls;
        if (now % period_ == 0 && work < 5) {
            ++work;
        }
    }

    bool busy() const override { return work < 5; }

    Tick
    nextWakeup(Tick now) const override
    {
        if (work >= 5) {
            return maxTick;
        }
        return now % period_ == 0 ? now
                                  : now + (period_ - now % period_);
    }

    Tick period_;
    unsigned work = 0;
    std::uint64_t tickCalls = 0;
};

/** Counts elapsed cycles through tick() and fastForward() alike. */
class CycleLedger : public Clocked
{
  public:
    CycleLedger() : Clocked("ledger") { hasFastForward_ = true; }
    void tick(Tick) override { ++cycles; }
    bool busy() const override { return false; }
    void fastForward(Tick from, Tick to) override
    {
        cycles += to - from;
    }
    std::uint64_t cycles = 0;
};

TEST(EventKernel, SkipsIdleCyclesButKeepsTimeAndStateExact)
{
    auto run = [](KernelMode mode) {
        System sys;
        sys.setMode(mode);
        Pulse pulse(100);
        CycleLedger ledger;
        sys.add(&pulse);
        sys.add(&ledger);
        EXPECT_TRUE(sys.runUntilIdle(10'000));
        EXPECT_EQ(ledger.cycles, sys.now());
        return std::tuple{sys.now(), pulse.work, pulse.tickCalls};
    };
    const auto [dense_now, dense_work, dense_ticks] =
        run(KernelMode::Dense);
    const auto [event_now, event_work, event_ticks] =
        run(KernelMode::Event);

    EXPECT_EQ(dense_now, event_now);   // Same simulated time...
    EXPECT_EQ(dense_work, event_work); // ...same state...
    EXPECT_EQ(event_ticks, 5u);        // ...but only 5 real ticks
    EXPECT_GT(dense_ticks, 100u);      // vs one per cycle densely.
}

// ---------------------------------------------------------------------
// Kernel selection: dense and event are the only kernel names, a
// config that names a kernel gets it, and --kernel= / HWGC_KERNEL
// picks the kernel only for configs that leave it unset.
// ---------------------------------------------------------------------

/** Starts a Session on the command line "prog --kernel=parallel". */
void
sessionWithRetiredKernel()
{
    char prog[] = "prog";
    char flag[] = "--kernel=parallel";
    char *argv[] = {prog, flag, nullptr};
    int argc = 2;
    telemetry::Session session(argc, argv);
}

TEST(KernelNameDeathTest, DeviceRejectsRetiredKernelNamingTheField)
{
    EXPECT_EXIT(sessionWithRetiredKernel(),
                ::testing::ExitedWithCode(1),
                "--kernel: unknown kernel 'parallel' "
                "\\(want dense or event\\)");
}

/** Sets the --kernel= option for one scope. */
class KernelOption
{
  public:
    explicit KernelOption(KernelMode mode)
    {
        telemetry::options().kernel = mode;
    }
    ~KernelOption() { telemetry::options().kernel.reset(); }
};

KernelMode
deviceKernel(const core::HwgcConfig &config)
{
    mem::PhysMem mem;
    runtime::Heap heap(mem);
    core::HwgcDevice device(mem, heap.pageTable(), config);
    return device.system().mode();
}

TEST(KernelSelection, ConfiguredKernelBeatsTheOption)
{
    const KernelOption option(KernelMode::Event);
    core::HwgcConfig config;
    config.kernel = KernelMode::Dense;
    EXPECT_EQ(deviceKernel(config), KernelMode::Dense);
}

TEST(KernelSelection, UnsetConfigFollowsTheOption)
{
    EXPECT_EQ(deviceKernel(core::HwgcConfig{}), KernelMode::Event);
    const KernelOption option(KernelMode::Dense);
    EXPECT_EQ(deviceKernel(core::HwgcConfig{}), KernelMode::Dense);
}

} // namespace
} // namespace hwgc
