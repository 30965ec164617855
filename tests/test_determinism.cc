/**
 * @file
 * Determinism tests: the simulator must be bit-reproducible — same
 * seeds, same cycle counts, same statistics — across runs and across
 * configurations that should not affect results. This is what makes
 * every number in EXPERIMENTS.md reproducible.
 *
 * The KernelMatrix suite is the strongest form of that contract: the
 * dense and event kernels must agree bit for bit on every modeled
 * configuration — final cycle counts, the full stats-JSON export, and
 * the mark/sweep oracles.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>

#include "driver/fleet.h"
#include "driver/gc_lab.h"
#include "instance_ids.h"
#include "options_guard.h"
#include "sim/telemetry.h"

namespace hwgc
{
namespace
{

struct RunSignature
{
    Tick hwMark = 0;
    Tick hwSweep = 0;
    std::uint64_t marked = 0;
    std::uint64_t freed = 0;
    std::uint64_t tracerRequests = 0;
    std::uint64_t spilled = 0;
    std::uint64_t dramBytes = 0;

    bool
    operator==(const RunSignature &o) const
    {
        return hwMark == o.hwMark && hwSweep == o.hwSweep &&
            marked == o.marked && freed == o.freed &&
            tracerRequests == o.tracerRequests &&
            spilled == o.spilled && dramBytes == o.dramBytes;
    }
};

RunSignature
signatureFor(const core::HwgcConfig &config, std::uint64_t seed)
{
    auto profile = workload::smokeProfile();
    profile.graph.seed = seed;
    driver::LabConfig lab_config;
    lab_config.runSw = false;
    lab_config.hwgc = config;
    driver::GcLab lab(profile, lab_config);
    lab.run();
    const auto &last = lab.results().back();
    RunSignature sig;
    sig.hwMark = last.hwMarkCycles;
    sig.hwSweep = last.hwSweepCycles;
    sig.marked = last.objectsMarked;
    sig.freed = last.cellsFreed;
    sig.tracerRequests = last.hw.tracerRequests;
    sig.spilled = last.hw.entriesSpilled;
    sig.dramBytes = last.hw.dramBytes;
    return sig;
}

TEST(Determinism, IdenticalRunsAreCycleIdentical)
{
    const auto a = signatureFor(core::HwgcConfig{}, 7);
    const auto b = signatureFor(core::HwgcConfig{}, 7);
    EXPECT_TRUE(a == b);
}

TEST(Determinism, SeedsChangeTheRun)
{
    const auto a = signatureFor(core::HwgcConfig{}, 7);
    const auto b = signatureFor(core::HwgcConfig{}, 8);
    EXPECT_FALSE(a == b);
}

TEST(Determinism, IdealMemoryRunsAreReproducible)
{
    core::HwgcConfig config;
    config.memModel = core::MemModel::Ideal;
    const auto a = signatureFor(config, 9);
    const auto b = signatureFor(config, 9);
    EXPECT_TRUE(a == b);
}

TEST(Determinism, SharedCacheRunsAreReproducible)
{
    core::HwgcConfig config;
    config.sharedCache = true;
    const auto a = signatureFor(config, 10);
    const auto b = signatureFor(config, 10);
    EXPECT_TRUE(a == b);
}

// ---------------------------------------------------------------------
// Kernel matrix: both kernel modes must produce the same simulation,
// bit for bit.
// ---------------------------------------------------------------------

/** One full lab run folded down to everything that must match. */
struct MatrixResult
{
    Tick hwMark = 0;  //!< Mark cycles summed over all pauses.
    Tick hwSweep = 0; //!< Sweep cycles summed over all pauses.
    std::uint64_t marked = 0;
    std::uint64_t freed = 0;
    std::string statsJson; //!< Normalized full registry export.
};

MatrixResult
matrixRun(core::HwgcConfig config, KernelMode kernel,
          const workload::BenchmarkProfile &profile)
{
    config.kernel = kernel;
    driver::LabConfig lab_config;
    lab_config.runSw = false;
    lab_config.verify = true; // Oracle-checks marks and the swept heap.
    lab_config.hwgc = config;
    lab_config.heap.layout = config.layout;

    // Retired groups from earlier runs in this process would otherwise
    // accumulate into the export and differ between runs.
    telemetry::StatsRegistry::global().clearRetired();

    driver::GcLab lab(profile, lab_config);
    lab.run();

    MatrixResult r;
    for (const auto &pause : lab.results()) {
        r.hwMark += pause.hwMarkCycles;
        r.hwSweep += pause.hwSweepCycles;
        r.marked += pause.objectsMarked;
        r.freed += pause.cellsFreed;
    }
    std::ostringstream os;
    telemetry::StatsRegistry::global().exportJson(os, {});
    r.statsJson = normalizeInstanceIds(os.str());
    return r;
}

/** On mismatch, EXPECT_EQ on two full exports is unreadable; point at
 *  the first divergence instead. */
void
expectSameStatsJson(const std::string &ref, const std::string &run)
{
    if (ref == run) {
        return;
    }
    std::size_t i = 0;
    while (i < ref.size() && i < run.size() && ref[i] == run[i]) {
        ++i;
    }
    const std::size_t begin = i > 120 ? i - 120 : 0;
    ADD_FAILURE() << "stats JSON diverged at byte " << i << "\n  ref: ..."
                  << ref.substr(begin, 200) << "\n  run: ..."
                  << run.substr(begin, 200);
}

void
expectKernelMatrixAgrees(
    const core::HwgcConfig &config,
    const workload::BenchmarkProfile &profile = workload::smokeProfile())
{
    const auto ref = matrixRun(config, KernelMode::Dense, profile);
    const auto run = matrixRun(config, KernelMode::Event, profile);
    EXPECT_EQ(ref.hwMark, run.hwMark);
    EXPECT_EQ(ref.hwSweep, run.hwSweep);
    EXPECT_EQ(ref.marked, run.marked);
    EXPECT_EQ(ref.freed, run.freed);
    expectSameStatsJson(ref.statsJson, run.statsJson);
}

/**
 * The kernel matrix with the cycle profiler attached: the dense
 * kernel classifies every component on every cycle, so its profile
 * is the reference the event kernel's must equal, every
 * "*.profile.*" vector of the export included.
 */
void
expectProfiledKernelMatrixAgrees(
    const core::HwgcConfig &config,
    const workload::BenchmarkProfile &profile = workload::smokeProfile())
{
    OptionsGuard guard;
    telemetry::options().profile = true;
    const auto ref = matrixRun(config, KernelMode::Dense, profile);
    ASSERT_NE(ref.statsJson.find(".profile.marker\": {"),
              std::string::npos)
        << "the export holds no profile groups";
    const auto run = matrixRun(config, KernelMode::Event, profile);
    EXPECT_EQ(ref.hwMark, run.hwMark);
    EXPECT_EQ(ref.hwSweep, run.hwSweep);
    expectSameStatsJson(ref.statsJson, run.statsJson);
}

/** @name The standalone configurations both matrices run @{ */

core::HwgcConfig
sharedCache()
{
    core::HwgcConfig config;
    config.sharedCache = true;
    return config;
}

core::HwgcConfig
idealMemory()
{
    core::HwgcConfig config;
    config.memModel = core::MemModel::Ideal;
    return config;
}

core::HwgcConfig
spillPressure()
{
    core::HwgcConfig config;
    config.markQueueEntries = 32; // Force the spill path.
    return config;
}

core::HwgcConfig
bandwidthThrottle()
{
    core::HwgcConfig config;
    config.bus.throttleBytesPerCycle = 1.0;
    return config;
}

core::HwgcConfig
tibLayout()
{
    core::HwgcConfig config;
    config.layout = runtime::Layout::Tib;
    return config;
}

// The event kernel skips token-starved bus cycles and the tracer's
// retries into a full port, replaying both in closed form. These
// points stress the replay where it is least regular.

core::HwgcConfig
offStepThrottleRate()
{
    // 0.3 B/cycle is not a multiple of the bucket's 2^-32-byte step,
    // so the rounded rate's grant cycles never repeat in a short
    // period.
    core::HwgcConfig config;
    config.bus.throttleBytesPerCycle = 0.3;
    return config;
}

core::HwgcConfig
twoGrantsPerCycleUnderThrottle()
{
    core::HwgcConfig config;
    config.bus.grantsPerCycle = 2;
    config.bus.throttleBytesPerCycle = 2.0;
    return config;
}

core::HwgcConfig
sharedCacheUnderThrottle()
{
    // The tracer's port is a cache port here: the cache's lookup pop,
    // not a bus grant, is what wakes the sleeping tracer.
    core::HwgcConfig config = sharedCache();
    config.bus.throttleBytesPerCycle = 1.0;
    return config;
}

core::HwgcConfig
tibLayoutUnderThrottle()
{
    // A refused TIB slot read follows two TLB probes (slot and offset
    // word); the replay must stamp both in order.
    core::HwgcConfig config = tibLayout();
    config.bus.throttleBytesPerCycle = 1.0;
    return config;
}

/** Mark-queue overflow stress: a tiny queue against a wide graph
 *  keeps the spill/refill path saturated. */
core::HwgcConfig
spillStressTinyQueue()
{
    core::HwgcConfig config;
    config.markQueueEntries = 16;
    config.spillQueueEntries = 16;
    config.spillThrottle = 8;
    return config;
}

workload::BenchmarkProfile
spillStressWideGraph()
{
    auto profile = workload::smokeProfile();
    profile.graph.numRoots = 128;
    profile.graph.avgRefs = 8.0;
    profile.graph.maxRefs = 24;
    profile.numGCs = 1;
    return profile;
}
/** @} */

TEST(KernelMatrix, BaselineDdr3)
{
    expectKernelMatrixAgrees(core::HwgcConfig{});
}

TEST(KernelMatrix, SharedCache)
{
    expectKernelMatrixAgrees(sharedCache());
}

TEST(KernelMatrix, IdealMemory)
{
    expectKernelMatrixAgrees(idealMemory());
}

TEST(KernelMatrix, SpillPressure)
{
    expectKernelMatrixAgrees(spillPressure());
}

TEST(KernelMatrix, BandwidthThrottle)
{
    expectKernelMatrixAgrees(bandwidthThrottle());
}

TEST(KernelMatrix, TibLayout)
{
    expectKernelMatrixAgrees(tibLayout());
}

TEST(KernelMatrix, OffStepThrottleRate)
{
    expectKernelMatrixAgrees(offStepThrottleRate());
}

TEST(KernelMatrix, TwoGrantsPerCycleUnderThrottle)
{
    expectKernelMatrixAgrees(twoGrantsPerCycleUnderThrottle());
}

TEST(KernelMatrix, SharedCacheUnderThrottle)
{
    expectKernelMatrixAgrees(sharedCacheUnderThrottle());
}

TEST(KernelMatrix, TibLayoutUnderThrottle)
{
    expectKernelMatrixAgrees(tibLayoutUnderThrottle());
}

TEST(ProfiledKernelMatrix, BaselineDdr3)
{
    expectProfiledKernelMatrixAgrees(core::HwgcConfig{});
}

TEST(ProfiledKernelMatrix, SharedCache)
{
    expectProfiledKernelMatrixAgrees(sharedCache());
}

TEST(ProfiledKernelMatrix, IdealMemory)
{
    expectProfiledKernelMatrixAgrees(idealMemory());
}

TEST(ProfiledKernelMatrix, SpillPressure)
{
    expectProfiledKernelMatrixAgrees(spillPressure());
}

TEST(ProfiledKernelMatrix, BandwidthThrottle)
{
    expectProfiledKernelMatrixAgrees(bandwidthThrottle());
}

TEST(ProfiledKernelMatrix, TibLayout)
{
    expectProfiledKernelMatrixAgrees(tibLayout());
}

TEST(ProfiledKernelMatrix, OffStepThrottleRate)
{
    expectProfiledKernelMatrixAgrees(offStepThrottleRate());
}

TEST(ProfiledKernelMatrix, TwoGrantsPerCycleUnderThrottle)
{
    expectProfiledKernelMatrixAgrees(twoGrantsPerCycleUnderThrottle());
}

TEST(ProfiledKernelMatrix, SharedCacheUnderThrottle)
{
    expectProfiledKernelMatrixAgrees(sharedCacheUnderThrottle());
}

TEST(ProfiledKernelMatrix, TibLayoutUnderThrottle)
{
    expectProfiledKernelMatrixAgrees(tibLayoutUnderThrottle());
}

TEST(ProfiledKernelMatrix, SpillStressTinyQueueWideGraph)
{
    expectProfiledKernelMatrixAgrees(spillStressTinyQueue(),
                                     spillStressWideGraph());
}

// ---------------------------------------------------------------------
// Fleet shape: two devices sharing one DRAM + interconnect, serving
// multiple tenant heaps through the quantum-gridded service loop.
// tests/test_fleet.cc owns the full fleet matrix; this case keeps a
// compact shared-DRAM fleet inside the tier-1 determinism suite.
// ---------------------------------------------------------------------

/** A whole fleet run folded down to everything that must match. */
struct FleetMatrixResult
{
    Tick finalCycle = 0;
    std::uint64_t totalGcs = 0;
    std::vector<std::uint64_t> perTenant; //!< gcs/stw/queue triples.
    std::string statsJson;
};

/** @p throttle caps the shared bus and @p pace budgets every tenant
 *  (bytes/cycle, 0 = off). */
FleetMatrixResult
fleetMatrixRun(KernelMode kernel, double throttle = 0.0,
               double pace = 0.0)
{
    driver::FleetConfig config;
    config.devices = 2;
    config.gcsPerTenant = 1;
    config.hwgc.kernel = kernel;
    config.hwgc.bus.throttleBytesPerCycle = throttle;

    std::vector<driver::TenantParams> tenants(3);
    for (unsigned t = 0; t < tenants.size(); ++t) {
        auto &tenant = tenants[t];
        std::string name(1, 't');
        name += std::to_string(t);
        tenant.name = std::move(name);
        tenant.graph = workload::smokeProfile().graph;
        tenant.graph.seed = 500 + t;
        tenant.gcPeriodCycles = 150'000;
        tenant.seed = 20 + t;
        tenant.paceBytesPerCycle = pace;
    }

    telemetry::StatsRegistry::global().clearRetired();
    FleetMatrixResult r;
    {
        driver::FleetLab lab(config, tenants);
        lab.run();
        r.finalCycle = lab.now();
        r.totalGcs = lab.totalGcs();
        for (const auto &stats : lab.stats()) {
            r.perTenant.push_back(stats.gcs);
            r.perTenant.push_back(stats.stwCycles);
            r.perTenant.push_back(stats.queueCycles);
        }
        std::ostringstream os;
        telemetry::StatsRegistry::global().exportJson(os, {});
        r.statsJson = normalizeInstanceIds(os.str());
    } // Scoped: a live lab would leak its groups into later exports.
    return r;
}

TEST(KernelMatrix, FleetTwoDevicesSharedDram)
{
    const auto ref = fleetMatrixRun(KernelMode::Dense);
    EXPECT_EQ(ref.totalGcs, 3u);
    const auto run = fleetMatrixRun(KernelMode::Event);
    EXPECT_EQ(ref.finalCycle, run.finalCycle);
    EXPECT_EQ(ref.totalGcs, run.totalGcs);
    EXPECT_EQ(ref.perTenant, run.perTenant);
    expectSameStatsJson(ref.statsJson, run.statsJson);
}

/**
 * The value of scalar @p name in the group at @p path of a stats
 * export (a group's scalars object closes at its first '}').
 */
std::uint64_t
exportedScalar(const std::string &json, const std::string &path,
               const std::string &name)
{
    const std::size_t group = json.find("\"" + path + "\": {");
    const std::string key = "\"" + name + "\": ";
    const std::size_t at = json.find(key, group);
    if (group == std::string::npos || at == std::string::npos ||
        at > json.find('}', group)) {
        ADD_FAILURE() << "no scalar " << name << " in group " << path;
        return 0;
    }
    return std::stoull(json.substr(at + key.size(), 20));
}

TEST(KernelMatrix, FleetGlobalThrottleAndGroupPacing)
{
    // Both buckets gate every grant: the global one starves a prefix
    // of a skipped span and the tenant's group bucket the rest.
    const auto ref = fleetMatrixRun(KernelMode::Dense, 3.0, 1.0);
    EXPECT_EQ(ref.totalGcs, 3u);
    const auto run = fleetMatrixRun(KernelMode::Event, 3.0, 1.0);
    EXPECT_EQ(ref.finalCycle, run.finalCycle);
    EXPECT_EQ(ref.totalGcs, run.totalGcs);
    EXPECT_EQ(ref.perTenant, run.perTenant);
    expectSameStatsJson(ref.statsJson, run.statsJson);
    for (const char *stat : {"throttledGrants", "groupThrottledGrants"}) {
        EXPECT_GT(exportedScalar(ref.statsJson, "system.fleet#.bus", stat),
                  0u)
            << stat << " never bit";
    }
}

// ---------------------------------------------------------------------
// Mark-queue overflow stress: its spill counters must be identical
// across kernels (the profiled matrix compares the full export, but
// the explicit asserts document which stats are the point here).
// ---------------------------------------------------------------------

TEST(KernelMatrix, SpillStressTinyQueueWideGraph)
{
    const core::HwgcConfig config = spillStressTinyQueue();
    const workload::BenchmarkProfile profile = spillStressWideGraph();

    auto run = [&](KernelMode kernel) {
        auto cfg = config;
        cfg.kernel = kernel;
        driver::LabConfig lab_config;
        lab_config.runSw = false;
        lab_config.verify = true;
        lab_config.hwgc = cfg;
        driver::GcLab lab(profile, lab_config);
        lab.run();
        const auto &hw = lab.results().back().hw;
        struct Spill
        {
            std::uint64_t writes, reads, entries;
            Tick markCycles;
        };
        return Spill{hw.spillWrites, hw.spillReads, hw.entriesSpilled,
                     lab.results().back().hwMarkCycles};
    };

    const auto dense = run(KernelMode::Dense);
    ASSERT_GT(dense.entries, 0u) << "stress config did not spill";
    ASSERT_GT(dense.writes, 0u);

    const auto event = run(KernelMode::Event);
    EXPECT_EQ(dense.writes, event.writes);
    EXPECT_EQ(dense.reads, event.reads);
    EXPECT_EQ(dense.entries, event.entries);
    EXPECT_EQ(dense.markCycles, event.markCycles);
}

TEST(Determinism, SwSideIsReproducibleToo)
{
    auto run = [] {
        driver::LabConfig config;
        config.runHw = false;
        driver::GcLab lab(workload::smokeProfile(), config);
        lab.run();
        return std::pair{lab.results().back().swMarkCycles,
                         lab.results().back().swSweepCycles};
    };
    EXPECT_EQ(run(), run());
}

} // namespace
} // namespace hwgc
