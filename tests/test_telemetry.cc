/**
 * @file
 * Telemetry-layer tests. The load-bearing guarantee is the A/B runs:
 * turning every telemetry sink on (trace file, counter tracks,
 * interval snapshots) must leave simulated cycles and statistics
 * bit-identical to a run with telemetry off, on both kernels —
 * telemetry is observational, never part of the model.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "driver/gc_lab.h"
#include "sim/telemetry.h"

namespace hwgc
{
namespace
{

// ---------------------------------------------------------------------
// Option parsing: a numeric value that does not parse is rejected
// where it enters, naming the flag or variable and the value.
// ---------------------------------------------------------------------

/** Parses the command line "prog @p arg". */
void
parseOneArg(std::string arg)
{
    char prog[] = "prog";
    char *argv[] = {prog, arg.data(), nullptr};
    int argc = 2;
    telemetry::parseArgs(argc, argv);
}

TEST(OptionsDeathTest, BadNumericFlagsFailNamingFlagAndValue)
{
    struct Case
    {
        const char *flag;
        const char *value;
        const char *want; //!< "integer" or "number".
    };
    const Case cases[] = {
        {"--stats-interval", "5e6", "integer"},
        {"--stats-interval", "-5", "integer"},
        {"--stats-interval", "", "integer"},
        {"--checkpoint-at", "5e6", "integer"},
        {"--checkpoint-at", "-5", "integer"},
        {"--checkpoint-at", "", "integer"},
        {"--watchdog-secs", "2s", "number"},
        {"--watchdog-secs", "-5", "number"},
        {"--watchdog-secs", "", "number"},
    };
    for (const Case &c : cases) {
        const std::string arg = std::string(c.flag) + "=" + c.value;
        SCOPED_TRACE(arg);
        EXPECT_EXIT(parseOneArg(arg), ::testing::ExitedWithCode(1),
                    std::string(c.flag) + ": '" + c.value +
                        "' is not a non-negative " + c.want);
    }
}

TEST(OptionsDeathTest, BadNumericVariableFailsNamingIt)
{
    EXPECT_EXIT(
        {
            ::setenv("HWGC_CHECKPOINT_AT", "5e6", 1);
            telemetry::applyEnv();
        },
        ::testing::ExitedWithCode(1),
        "HWGC_CHECKPOINT_AT: '5e6' is not a non-negative integer");
}

// ---------------------------------------------------------------------
// Registry mechanics.
// ---------------------------------------------------------------------

TEST(StatsRegistryDeathTest, PathRegisteredTwicePanics)
{
    // Every owner registers under a unique prefix, so a second
    // registration of a path, live or retired, is a bug.
    auto &registry = telemetry::StatsRegistry::global();
    stats::Group a("a"), b("b");
    registry.add("test.twice", &a);
    EXPECT_DEATH(registry.add("test.twice", &b),
                 "stats path 'test.twice' registered twice");
    registry.remove("test.twice");
    EXPECT_DEATH(registry.add("test.twice", &b),
                 "stats path 'test.twice' registered twice");
    registry.clearRetired();
}

TEST(StatsRegistry, UniquePrefixNeverRepeats)
{
    auto &registry = telemetry::StatsRegistry::global();
    const std::string p0 = registry.uniquePrefix("test.unit");
    const std::string p1 = registry.uniquePrefix("test.unit");
    EXPECT_EQ(p0, "test.unit0");
    EXPECT_EQ(p1, "test.unit1");
}

TEST(StatsRegistry, DeviceRegistersItsComponentTree)
{
    mem::PhysMem phys_mem;
    runtime::Heap heap(phys_mem);
    core::HwgcConfig config;
    const std::size_t before =
        telemetry::StatsRegistry::global().groups().size();
    {
        core::HwgcDevice device(phys_mem, heap.pageTable(), config);
        const auto &groups =
            telemetry::StatsRegistry::global().groups();
        EXPECT_GT(groups.size(), before + 10); // marker, tracer, ...
        const std::string &prefix = device.statsPrefix();
        for (const char *sub :
             {".marker", ".tracer", ".markQueue", ".rootReader",
              ".reclamation", ".ptw", ".bus", ".memory"}) {
            EXPECT_NE(groups.find(prefix + sub), groups.end())
                << "missing group " << prefix << sub;
        }
    }
    // Destruction unregisters every path (values move to retired).
    EXPECT_EQ(telemetry::StatsRegistry::global().groups().size(),
              before);
    telemetry::StatsRegistry::global().clearRetired();
}

TEST(StatsRegistry, DeviceResetZeroesEveryExportedStatistic)
{
    // Reset is uniform: after a collect under the global throttle and
    // a group budget, resetStats() leaves every scalar, vector,
    // histogram and time series of every group a standalone device
    // exports at zero — the root reader's, both bus throttle counters,
    // every TLB group and, with the shared cache, its per-port request
    // counts included.
    for (const bool shared : {false, true}) {
        SCOPED_TRACE(shared ? "shared cache" : "partitioned");
        mem::PhysMem phys_mem;
        runtime::Heap heap(phys_mem);
        workload::GraphBuilder builder(heap,
                                       workload::smokeProfile().graph);
        builder.build();
        heap.publishRoots();
        core::HwgcConfig config;
        config.sharedCache = shared;
        config.bus.throttleBytesPerCycle = 2.0;
        core::HwgcDevice device(phys_mem, heap.pageTable(), config);
        mem::Interconnect &bus = device.bus();
        for (unsigned c = 0; c < bus.numClients(); c += 2) {
            bus.setClientGroup(c, 0);
        }
        bus.setGroupThrottle(0, 1.0);
        device.configure(heap);
        device.collect();
        ASSERT_GT(device.rootReader().rootsRead(), 0u);
        ASSERT_GT(bus.throttledGrants(), 0u);
        ASSERT_GT(bus.groupThrottledGrants(), 0u);
        if (shared) {
            ASSERT_GT(device.sharedCache()->portRequests(0), 0u);
        }

        device.resetStats();
        const std::string prefix = device.statsPrefix() + ".";
        const auto &groups = telemetry::StatsRegistry::global().groups();
        for (const char *owned :
             {"rootReader.tlb", "reclamation.tlb", "sweeper0.tlb",
              "marker.tlb", "tracer.tlb", "ptw.l2tlb"}) {
            EXPECT_EQ(groups.count(prefix + owned), 1u) << owned;
        }
        unsigned exported = 0;
        for (const auto &[path, group] : groups) {
            if (path.rfind(prefix, 0) != 0) {
                continue;
            }
            ++exported;
            for (const stats::Scalar *s : group->scalars()) {
                EXPECT_EQ(s->value(), 0u) << path << "." << s->name();
            }
            for (const stats::Vector *v : group->vectors()) {
                EXPECT_EQ(v->total(), 0u) << path << "." << v->name();
            }
            for (const stats::Histogram *h : group->histograms()) {
                EXPECT_EQ(h->count() + h->sum() + h->minValue() +
                              h->maxValue(),
                          0u)
                    << path << "." << h->name();
                for (const std::uint64_t b : h->buckets()) {
                    EXPECT_EQ(b, 0u) << path << "." << h->name();
                }
            }
            for (const stats::TimeSeries *t : group->timeSeries()) {
                for (const std::uint64_t b : t->buckets()) {
                    EXPECT_EQ(b, 0u) << path << "." << t->name();
                }
            }
        }
        EXPECT_GT(exported, 10u);
    }
}

// ---------------------------------------------------------------------
// Perturbation A/B: telemetry on vs off, both kernels.
// ---------------------------------------------------------------------

struct RunSignature
{
    Tick hwMark = 0;
    Tick hwSweep = 0;
    std::uint64_t marked = 0;
    std::uint64_t freed = 0;
    std::uint64_t tracerRequests = 0;
    std::uint64_t spilled = 0;
    std::uint64_t ptwWalks = 0;
    std::uint64_t busBusyCycles = 0;
    std::uint64_t busCycles = 0;
    std::uint64_t dramBytes = 0;
    std::uint64_t dramReads = 0;
    std::uint64_t dramWrites = 0;

    bool
    operator==(const RunSignature &o) const
    {
        return hwMark == o.hwMark && hwSweep == o.hwSweep &&
               marked == o.marked && freed == o.freed &&
               tracerRequests == o.tracerRequests &&
               spilled == o.spilled && ptwWalks == o.ptwWalks &&
               busBusyCycles == o.busBusyCycles &&
               busCycles == o.busCycles && dramBytes == o.dramBytes &&
               dramReads == o.dramReads && dramWrites == o.dramWrites;
    }
};

RunSignature
runLab(KernelMode kernel)
{
    core::HwgcConfig config;
    config.kernel = kernel;
    driver::LabConfig lab_config;
    lab_config.runSw = false;
    lab_config.hwgc = config;
    driver::GcLab lab(workload::smokeProfile(), lab_config);
    lab.run();

    RunSignature sig;
    for (const auto &pause : lab.results()) {
        sig.hwMark += pause.hwMarkCycles;
        sig.hwSweep += pause.hwSweepCycles;
        sig.marked += pause.objectsMarked;
        sig.freed += pause.cellsFreed;
        sig.tracerRequests += pause.hw.tracerRequests;
        sig.spilled += pause.hw.entriesSpilled;
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
expectTelemetryDoesNotPerturb(KernelMode kernel, const char *trace_path)
{
    // Baseline: everything off.
    telemetry::options().statsInterval = 0;
    ASSERT_FALSE(telemetry::TraceWriter::global().enabled());
    const RunSignature off = runLab(kernel);

    // Instrumented: trace file, counter tracks, interval snapshots.
    auto &registry = telemetry::StatsRegistry::global();
    registry.clearSnapshots();
    telemetry::options().statsInterval = 512;
    telemetry::TraceWriter::global().open(trace_path);
    ASSERT_TRUE(telemetry::TraceWriter::global().enabled());
    const RunSignature on = runLab(kernel);
    const std::uint64_t events =
        telemetry::TraceWriter::global().eventsWritten();
    const std::size_t snapshots = registry.numSnapshots();
    telemetry::TraceWriter::global().close();
    telemetry::options().statsInterval = 0;
    registry.clearRetired();

    // The sinks actually observed the run...
    EXPECT_GT(events, 0u);
    EXPECT_GT(snapshots, 0u);
    // ...and changed nothing.
    EXPECT_TRUE(off == on) << "telemetry perturbed the simulation";
    EXPECT_EQ(off.hwMark, on.hwMark);
    EXPECT_EQ(off.hwSweep, on.hwSweep);
    EXPECT_EQ(off.busCycles, on.busCycles);
    EXPECT_EQ(off.dramBytes, on.dramBytes);
}

TEST(TelemetryPerturbation, DenseKernelRunsAreBitIdentical)
{
    expectTelemetryDoesNotPerturb(KernelMode::Dense,
                                  "test_telemetry_dense_trace.json");
    std::remove("test_telemetry_dense_trace.json");
}

TEST(TelemetryPerturbation, EventKernelRunsAreBitIdentical)
{
    expectTelemetryDoesNotPerturb(KernelMode::Event,
                                  "test_telemetry_event_trace.json");
    std::remove("test_telemetry_event_trace.json");
}

// ---------------------------------------------------------------------
// Trace file shape: a JSON array carrying the GC phase spans.
// ---------------------------------------------------------------------

TEST(TraceWriter, EmitsPhaseSpansActivityAndCounters)
{
    const char *path = "test_telemetry_shape_trace.json";
    telemetry::options().statsInterval = 0;
    telemetry::TraceWriter::global().open(path);
    runLab(KernelMode::Event);
    telemetry::TraceWriter::global().close();
    telemetry::StatsRegistry::global().clearRetired();

    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::stringstream buffer;
    buffer << in.rdbuf();
    const std::string text = buffer.str();
    std::remove(path);

    ASSERT_FALSE(text.empty());
    EXPECT_EQ(text.front(), '[');
    EXPECT_EQ(text.substr(text.size() - 2), "]\n");
    // Phase spans...
    EXPECT_NE(text.find("\"rootScan\""), std::string::npos);
    EXPECT_NE(text.find("\"mark\""), std::string::npos);
    EXPECT_NE(text.find("\"sweep\""), std::string::npos);
    // ...component activity spans with named tracks...
    EXPECT_NE(text.find("\"active\""), std::string::npos);
    EXPECT_NE(text.find("\"thread_name\""), std::string::npos);
    // ...and counter tracks ("C" events).
    EXPECT_NE(text.find("\"ph\": \"C\""), std::string::npos);
    EXPECT_NE(text.find("markQueue.depth"), std::string::npos);
}

} // namespace
} // namespace hwgc
