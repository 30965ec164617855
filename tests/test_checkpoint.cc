/**
 * @file
 * Checkpoint/restore tests: a checkpoint taken at any inter-cycle
 * boundary — mid-mark or mid-sweep via --checkpoint-at, with page
 * walks in flight, or after a completed phase — must restore into an
 * identically configured device and finish the run bit-identically
 * (same final cycle count, same full stats-JSON export) under either
 * kernel, and corrupt or mismatched checkpoint files must be rejected
 * with a fatal error, never silently mis-restored.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "core/hwgc_device.h"
#include "driver/fleet.h"
#include "instance_ids.h"
#include "options_guard.h"
#include "sim/checkpoint.h"
#include "sim/telemetry.h"
#include "tmp_path.h"
#include "workload/graph_gen.h"

namespace hwgc
{
namespace
{

using core::HwgcConfig;

/** A heap + device built for one shape/seed (same rig as test_hwgc). */
struct Rig
{
    Rig(const workload::GraphParams &graph, const HwgcConfig &config,
        runtime::Layout layout = runtime::Layout::Bidirectional)
        : heap(mem, makeHeapParams(layout)), builder(heap, graph)
    {
        builder.build();
        heap.clearAllMarks();
        heap.publishRoots();
        device = std::make_unique<core::HwgcDevice>(
            mem, heap.pageTable(), config);
        device->configure(heap);
    }

    static runtime::HeapParams
    makeHeapParams(runtime::Layout layout)
    {
        runtime::HeapParams params;
        params.layout = layout;
        return params;
    }

    mem::PhysMem mem;
    runtime::Heap heap;
    workload::GraphBuilder builder;
    std::unique_ptr<core::HwgcDevice> device;
};

workload::GraphParams
testGraph(std::uint64_t seed, std::uint64_t live = 900)
{
    workload::GraphParams p;
    p.liveObjects = live;
    p.garbageObjects = live / 2;
    p.numRoots = 8;
    p.arrayFraction = 0.15;
    p.seed = seed;
    return p;
}

std::string
exportStats()
{
    std::ostringstream os;
    telemetry::StatsRegistry::global().exportJson(os, {});
    return normalizeInstanceIds(os.str());
}

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

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

/**
 * Restore-then-save must reproduce the image byte for byte: every
 * serialize() writes back exactly what it read. @p save writes the
 * restored owner's image to the given path.
 */
template <typename Save>
void
expectResaveIdentical(const std::string &path, Save &&save)
{
    const std::string resaved = path + ".resaved";
    ASSERT_TRUE(save(resaved));
    EXPECT_TRUE(slurp(path) == slurp(resaved))
        << "restoring '" << path << "' and saving again changed the image";
    std::remove(resaved.c_str());
}

/** Everything a finished run must reproduce after a restore. */
struct FinalState
{
    Tick now = 0;
    Tick markCycles = 0;
    std::uint64_t marked = 0;
    std::uint64_t freed = 0;
    std::string statsJson;
};

/** Runs mark + sweep (resuming mid-phase if the device was restored
 *  there) and folds the run down to what must match. */
FinalState
finishRun(Rig &rig)
{
    const auto mark = rig.device->runMark();
    const auto sweep = rig.device->runSweep();
    FinalState f;
    f.now = rig.device->system().now();
    f.markCycles = mark.cycles;
    f.marked = mark.objectsMarked;
    f.freed = sweep.cellsFreed;
    f.statsJson = exportStats();
    return f;
}

HwgcConfig
withKernel(HwgcConfig config, KernelMode kernel)
{
    config.kernel = kernel;
    return config;
}

/**
 * One rig built, prepared (arm/restore), run to completion, and torn
 * down in its own registry scope: the rig must be destroyed before the
 * next run so its stats groups retire and the next clearRetired()
 * drops them from the export.
 */
template <typename Setup>
FinalState
scopedRun(const workload::GraphParams &graph, const HwgcConfig &config,
          runtime::Layout layout, Setup &&setup)
{
    telemetry::StatsRegistry::global().clearRetired();
    Rig rig(graph, config, layout);
    setup(rig);
    return finishRun(rig);
}

/**
 * The core round-trip: an uninterrupted reference run; then, at the
 * middle of the mark (or at @p mark_at) and at the middle of the
 * sweep, for each kernel a writer run that checkpoints there (and must
 * match the reference — writing cannot perturb the simulation) and a
 * reader run under the *other* kernel that restores that file, resumes
 * inside the interrupted phase, and must converge to the same final
 * cycle and statistics.
 */
void
expectMidPhaseRoundTrip(const HwgcConfig &config,
                        runtime::Layout layout =
                            runtime::Layout::Bidirectional,
                        Tick mark_at = 0)
{
    const auto graph = testGraph(21);

    const FinalState ref = scopedRun(
        graph, withKernel(config, KernelMode::Dense), layout,
        [](Rig &) {});
    ASSERT_GT(ref.markCycles, 200u) << "graph too small for a mid-mark "
                                       "checkpoint";
    ASSERT_GT(ref.now - ref.markCycles, 200u)
        << "graph too small for a mid-sweep checkpoint";
    ASSERT_GT(ref.marked, 0u);
    if (mark_at == 0) {
        mark_at = ref.markCycles / 2;
    }
    ASSERT_LT(mark_at, ref.markCycles) << "checkpoint cycle past the mark";

    struct Phase
    {
        const char *name;
        Tick at;
        std::uint64_t status; //!< What the restored status must read.
    };
    const Phase phases[] = {
        {"midmark", mark_at, core::MmioRegs::Marking},
        {"midsweep", ref.markCycles + (ref.now - ref.markCycles) / 2,
         core::MmioRegs::Sweeping},
    };

    struct Case
    {
        const char *name;
        KernelMode kernel;
    };
    static constexpr Case cases[] = {
        {"dense", KernelMode::Dense},
        {"event", KernelMode::Event},
    };

    for (const Phase &phase : phases) {
        for (std::size_t i = 0; i < std::size(cases); ++i) {
            const Case &save_case = cases[i];
            // Rotating the restore kernel also proves cross-kernel
            // resume in both directions: kernel mode is a host knob,
            // not architectural state.
            const Case &load_case = cases[(i + 1) % std::size(cases)];
            const std::string path = tmpPath(std::string(phase.name) +
                                             "-" + save_case.name +
                                             ".ckpt");

            {
                SCOPED_TRACE(std::string(phase.name) + ": save under " +
                             save_case.name);
                const FinalState run = scopedRun(
                    graph, withKernel(config, save_case.kernel), layout,
                    [&](Rig &writer) {
                        writer.device->soc().armCheckpoint(path, phase.at);
                    });
                EXPECT_EQ(ref.now, run.now);
                EXPECT_EQ(ref.markCycles, run.markCycles);
                EXPECT_EQ(ref.marked, run.marked);
                EXPECT_EQ(ref.freed, run.freed);
                expectSameStatsJson(ref.statsJson, run.statsJson);
            }
            {
                SCOPED_TRACE(std::string(phase.name) + ": restore under " +
                             load_case.name + " from " + save_case.name);
                const FinalState run = scopedRun(
                    graph, withKernel(config, load_case.kernel), layout,
                    [&](Rig &reader) {
                        reader.device->soc().restoreCheckpoint(path);
                        EXPECT_EQ(reader.device->system().now(), phase.at);
                        EXPECT_EQ(reader.device->regs().status,
                                  phase.status);
                        expectResaveIdentical(
                            path, [&](const std::string &p) {
                                return reader.device->soc().writeCheckpoint(p);
                            });
                    });
                EXPECT_EQ(ref.now, run.now);
                EXPECT_EQ(ref.freed, run.freed);
                expectSameStatsJson(ref.statsJson, run.statsJson);
            }
            std::remove(path.c_str());
        }
    }
}

TEST(Checkpoint, MidMarkRoundTripKernelMatrix)
{
    expectMidPhaseRoundTrip(HwgcConfig{});
}

TEST(Checkpoint, MidMarkRoundTripSharedCache)
{
    HwgcConfig config;
    config.sharedCache = true;
    expectMidPhaseRoundTrip(config);
}

TEST(Checkpoint, MidMarkRoundTripIdealMemory)
{
    HwgcConfig config;
    config.memModel = core::MemModel::Ideal;
    expectMidPhaseRoundTrip(config);
}

TEST(Checkpoint, MidMarkRoundTripSpillPressure)
{
    HwgcConfig config;
    config.markQueueEntries = 32; // Force the spill path.
    expectMidPhaseRoundTrip(config);
}

TEST(Checkpoint, MidMarkRoundTripRefillingBucketBlockedTracer)
{
    // The event kernel skips the cycles a refilling token bucket
    // starves and the tracer's retries into its full port: checkpoint
    // in the middle of such a span, where the bucket holds less than
    // a grant and the tracer sleeps on a refused request.
    HwgcConfig config;
    config.bus.throttleBytesPerCycle = 1.0;
    const auto graph = testGraph(21);
    Tick at = 0;
    {
        telemetry::StatsRegistry::global().clearRetired();
        Rig probe(graph, withKernel(config, KernelMode::Dense));
        probe.device->startMark();
        System &sys = probe.device->system();
        for (Tick c = 2000; c < 200'000 && at == 0; ++c) {
            ASSERT_EQ(sys.runUntilIdleStop(c), System::StopReason::Stopped);
            const mem::TokenBucket &bucket =
                probe.device->bus().throttleBucket();
            if (bucket.tokens() != 0 &&
                bucket.tokens() < mem::TokenBucket::steps(lineBytes) &&
                probe.device->tracer().portBlocked()) {
                at = c;
            }
        }
    }
    ASSERT_NE(at, 0u) << "no refilling, tracer-blocked cycle found";
    expectMidPhaseRoundTrip(config, runtime::Layout::Bidirectional, at);
}

TEST(Checkpoint, MidMarkRoundTripTibLayoutUnderThrottle)
{
    // A throttled TIB-layout mark: the tracer's dependent TIB loads
    // and refused slot reads are in flight at the checkpoint.
    HwgcConfig config;
    config.layout = runtime::Layout::Tib;
    config.bus.throttleBytesPerCycle = 1.0;
    expectMidPhaseRoundTrip(config, runtime::Layout::Tib);
}

// ---------------------------------------------------------------------
// Walks in flight: an image saved while the shared PTW holds a queued
// walk, a walk in progress or an undelivered completion must hand each
// result to the requester that asked for it after the restore.
// ---------------------------------------------------------------------

/** A checkpoint written at cycle `at`. */
struct Image
{
    Tick at;
    std::string path;
};

/**
 * Steps @p rig cycle by cycle from @p from and writes a checkpoint at
 * each of the first @p count boundaries where the PTW is busy. Returns
 * fewer if the phase drains first.
 */
std::vector<Image>
saveWhileWalking(Rig &rig, Tick from, unsigned count, const std::string &tag)
{
    System &sys = rig.device->system();
    std::vector<Image> images;
    for (Tick c = std::max(from, sys.now()); images.size() < count; ++c) {
        if (sys.runUntilIdleStop(c) != System::StopReason::Stopped) {
            break;
        }
        if (rig.device->ptw().busy()) {
            const std::string path =
                tmpPath(tag + "-" + std::to_string(c) + ".ckpt");
            EXPECT_TRUE(rig.device->soc().writeCheckpoint(path));
            images.push_back({c, path});
        }
    }
    return images;
}

/**
 * Saves a dense run wherever a walk is in flight near the start and
 * the middle of each phase, and restores every image under the event
 * kernel. The phase starts hold the first walks of the root reader
 * and of the block-table reader (nothing else has work yet), the end
 * of the root scan the marker's first misses, and the midpoints the
 * tracer's and the sweepers'. Between them the images hold queued
 * walks, walks in progress and undelivered completions.
 */
void
expectWalkInFlightRoundTrips(const HwgcConfig &config)
{
    const auto graph = testGraph(21);
    const auto layout = runtime::Layout::Bidirectional;
    const FinalState ref = scopedRun(
        graph, withKernel(config, KernelMode::Dense), layout,
        [](Rig &) {});
    const Tick sweep_start = ref.markCycles;

    std::vector<Image> images;
    {
        telemetry::StatsRegistry::global().clearRetired();
        Rig probe(graph, withKernel(config, KernelMode::Dense), layout);
        core::HwgcDevice &device = *probe.device;
        auto save = [&](Tick from, const std::string &tag) {
            const auto found = saveWhileWalking(probe, from, 3, tag);
            EXPECT_EQ(found.size(), 3u) << "too few walks in flight at "
                                        << tag;
            images.insert(images.end(), found.begin(), found.end());
        };
        device.startMark();
        save(0, "walk-markstart");
        EXPECT_TRUE(device.marker().idle() && device.tracer().idle())
            << "the first mark walks belong to the root reader";
        while (!device.rootReader().done()) {
            device.system().runUntilIdleStop(device.system().now() + 1);
        }
        save(device.system().now(), "walk-markroots");
        save(ref.markCycles / 2, "walk-midmark");
        device.runMark();
        ASSERT_EQ(device.system().now(), sweep_start);
        device.startSweep();
        save(sweep_start, "walk-sweepstart");
        for (const auto &sweeper : device.reclamation().sweepers()) {
            EXPECT_TRUE(sweeper->idle())
                << "the first sweep walks belong to the block-table "
                   "reader";
        }
        save(sweep_start + (ref.now - sweep_start) / 2, "walk-midsweep");
    }

    for (const Image &image : images) {
        SCOPED_TRACE("restore under event at cycle " +
                     std::to_string(image.at));
        const FinalState run = scopedRun(
            graph, withKernel(config, KernelMode::Event), layout,
            [&](Rig &reader) {
                reader.device->soc().restoreCheckpoint(image.path);
                EXPECT_EQ(reader.device->system().now(), image.at);
                EXPECT_TRUE(reader.device->ptw().busy());
                expectResaveIdentical(image.path,
                                      [&](const std::string &p) {
                    return reader.device->soc().writeCheckpoint(p);
                });
            });
        EXPECT_EQ(ref.now, run.now);
        EXPECT_EQ(ref.freed, run.freed);
        expectSameStatsJson(ref.statsJson, run.statsJson);
        std::remove(image.path.c_str());
    }
}

TEST(Checkpoint, WalkInFlightRoundTrips)
{
    expectWalkInFlightRoundTrips(HwgcConfig{});
}

TEST(Checkpoint, WalkInFlightRoundTripsSharedCache)
{
    // PTE fetches share the unit cache with every traversal port.
    HwgcConfig config;
    config.sharedCache = true;
    expectWalkInFlightRoundTrips(config);
}

// ---------------------------------------------------------------------
// Post-phase checkpoints: --checkpoint-out without --checkpoint-at
// writes after every completed phase; restoring the post-sweep file
// must reproduce the *next* pause exactly (warmed caches and all).
// ---------------------------------------------------------------------

void
runSecondPause(Rig &rig)
{
    rig.heap.clearAllMarks();
    rig.heap.publishRoots();
    rig.device->resetPhaseState();
    rig.device->runMark();
    rig.device->runSweep();
}

TEST(Checkpoint, PhaseCheckpointResumesNextPause)
{
    const auto graph = testGraph(23);
    const std::string path = tmpPath("phase.ckpt");
    const HwgcConfig config;

    Tick pause1_now = 0;
    Tick original_now = 0;
    std::string original_stats;
    {
        telemetry::StatsRegistry::global().clearRetired();
        Rig original(graph, config);
        original.device->soc().armCheckpoint(path);
        const auto pause1 = original.device->collect();
        ASSERT_GT(pause1.cellsFreed, 0u);
        // Freeze the post-pause-1 file before pause 2 overwrites it.
        original.device->soc().armCheckpoint("");
        pause1_now = original.device->system().now();
        runSecondPause(original);
        original_now = original.device->system().now();
        original_stats = exportStats();
    }

    telemetry::StatsRegistry::global().clearRetired();
    Rig restored(graph, config);
    restored.device->soc().restoreCheckpoint(path);
    EXPECT_EQ(restored.device->system().now(), pause1_now);
    EXPECT_EQ(restored.device->regs().status, core::MmioRegs::Idle);
    runSecondPause(restored);
    EXPECT_EQ(restored.device->system().now(), original_now);
    expectSameStatsJson(original_stats, exportStats());
}

/** One pause the way GcLab runs it: configure(), then mark and sweep. */
void
configuredPause(Rig &rig)
{
    rig.heap.clearAllMarks();
    rig.heap.publishRoots();
    rig.device->resetPhaseState();
    rig.device->configure(rig.heap);
    rig.device->runMark();
    rig.device->runSweep();
}

TEST(Checkpoint, CheckpointInRestoresOnce)
{
    // --checkpoint-in= resumes one run: the configure() that restores
    // the image consumes the option, so the next pause's configure()
    // continues the restored run instead of loading the image again.
    const auto graph = testGraph(29);
    const std::string path = tmpPath("resume.ckpt");
    const HwgcConfig config;
    constexpr Tick at = 3000;

    Tick pause1_now = 0;
    Tick original_now = 0;
    std::string original_stats;
    {
        telemetry::StatsRegistry::global().clearRetired();
        Rig original(graph, config);
        original.device->soc().armCheckpoint(path, at);
        ASSERT_GT(original.device->runMark().cycles, at);
        original.device->runSweep();
        pause1_now = original.device->system().now();
        configuredPause(original);
        original_now = original.device->system().now();
        original_stats = exportStats();
    }

    telemetry::StatsRegistry::global().clearRetired();
    telemetry::options().checkpointIn = path;
    Rig resumed(graph, config); // Its configure() restores the image.
    EXPECT_TRUE(telemetry::options().checkpointIn.empty());
    EXPECT_EQ(resumed.device->system().now(), at);
    resumed.device->runMark();
    resumed.device->runSweep();
    EXPECT_EQ(resumed.device->system().now(), pause1_now);
    configuredPause(resumed);
    telemetry::options().checkpointIn.clear();
    EXPECT_EQ(resumed.device->system().now(), original_now);
    expectSameStatsJson(original_stats, exportStats());
}

TEST(Checkpoint, WriteFileReportsAFullDisk)
{
    if (::access("/dev/full", W_OK) != 0) {
        GTEST_SKIP() << "/dev/full is not writable here";
    }
    // A small image fits the stdio buffer, so only the final flush
    // meets the full disk.
    std::uint64_t word = 42;
    EXPECT_FALSE(checkpoint::save("/dev/full", [&](checkpoint::Archive &ar) {
        ar.chunk("word", word);
    }));
}

// ---------------------------------------------------------------------
// Fleet checkpoints: the whole 2-device fleet — driver queues, shared
// bus + DRAM, every tenant heap — round-trips through one file and
// resumes bit-identically. tests/test_fleet.cc owns the deeper matrix
// (cross-kernel restore, measured-percentile equality); this keeps a
// compact fleet round-trip beside the single-device format tests.
// ---------------------------------------------------------------------

/** A finished fleet run folded down to everything that must match. */
struct FleetFinal
{
    Tick now = 0;
    std::uint64_t totalGcs = 0;
    std::vector<std::uint64_t> perTenant; //!< gcs/stw/queue triples.
    std::string statsJson;
};

FleetFinal
fleetFinal(driver::FleetLab &lab)
{
    FleetFinal f;
    f.now = lab.now();
    f.totalGcs = lab.totalGcs();
    for (const auto &stats : lab.stats()) {
        f.perTenant.push_back(stats.gcs);
        f.perTenant.push_back(stats.stwCycles);
        f.perTenant.push_back(stats.queueCycles);
    }
    f.statsJson = exportStats();
    return f;
}

void
expectSameFleetFinal(const FleetFinal &ref, const FleetFinal &run)
{
    EXPECT_EQ(ref.now, run.now);
    EXPECT_EQ(ref.totalGcs, run.totalGcs);
    EXPECT_EQ(ref.perTenant, run.perTenant);
    expectSameStatsJson(ref.statsJson, run.statsJson);
}

driver::FleetConfig
fleetTestConfig()
{
    driver::FleetConfig config;
    config.devices = 2;
    config.gcsPerTenant = 1;
    return config;
}

std::vector<driver::TenantParams>
fleetTestTenants()
{
    std::vector<driver::TenantParams> tenants(3);
    for (unsigned t = 0; t < tenants.size(); ++t) {
        auto &tenant = tenants[t];
        std::string name(1, 't');
        name += std::to_string(t);
        tenant.name = std::move(name);
        tenant.graph = testGraph(700 + t, 300);
        tenant.gcPeriodCycles = 150'000;
        tenant.seed = 40 + t;
    }
    return tenants;
}

TEST(Checkpoint, FleetMidServiceRoundTrip)
{
    const std::string path = tmpPath("fleet-roundtrip.ckpt");
    const auto config = fleetTestConfig();
    const auto tenants = fleetTestTenants();

    FleetFinal ref;
    {
        telemetry::StatsRegistry::global().clearRetired();
        driver::FleetLab whole(config, tenants);
        whole.run();
        ref = fleetFinal(whole);
    }
    ASSERT_EQ(ref.totalGcs, 3u);

    Tick ckpt_at = 0;
    {
        // Writing the checkpoint must not perturb the writer's run.
        telemetry::StatsRegistry::global().clearRetired();
        driver::FleetLab writer(config, tenants);
        writer.runUntilCycle(200'000);
        ASSERT_FALSE(writer.done()) << "checkpoint after the service "
                                       "horizon tests nothing";
        ckpt_at = writer.now();
        ASSERT_TRUE(writer.soc().writeCheckpoint(path));
        writer.run();
        expectSameFleetFinal(ref, fleetFinal(writer));
    }
    {
        telemetry::StatsRegistry::global().clearRetired();
        driver::FleetLab restored(config, tenants);
        restored.soc().restoreCheckpoint(path);
        EXPECT_EQ(restored.now(), ckpt_at);
        expectResaveIdentical(path, [&](const std::string &p) {
            return restored.soc().writeCheckpoint(p);
        });
        restored.run();
        expectSameFleetFinal(ref, fleetFinal(restored));
    }
}

TEST(Checkpoint, FleetImageLayout)
{
    // A fleet image is the fleet's own chunks, then the SoC part: the
    // device configuration and every device's registers, in front of
    // the kernel, as in a standalone image.
    const auto config = fleetTestConfig();
    const auto tenants = fleetTestTenants();
    const std::string path = tmpPath("fleet-layout.ckpt");
    driver::FleetLab lab(config, tenants);
    ASSERT_TRUE(lab.soc().writeCheckpoint(path));

    std::vector<std::string> names;
    std::uint64_t driver_bytes = 0;
    for (const auto &chunk : checkpoint::Deserializer::listChunks(path)) {
        names.push_back(chunk.name);
        if (chunk.name == "driver") {
            driver_bytes = chunk.size;
        }
    }
    const std::vector<std::string> expected = {
        "fleetcfg", "driver", "heap0", "builder0", "heap1", "builder1",
        "heap2", "builder2", "config", "hwgc0.regs", "hwgc1.regs",
        "kernel"};
    ASSERT_GT(names.size(), expected.size());
    EXPECT_EQ(std::vector<std::string>(names.begin(),
                                       names.begin() + expected.size()),
              expected);
    EXPECT_EQ(names.back(), "physmem");
    EXPECT_EQ(std::count(names.begin(), names.end(), "regs"), 0);

    // A fresh fleet's driver chunk holds an empty pending queue (its
    // count); per tenant the RNG (4 words), next trigger, GCs done,
    // queued flag, an empty pause list (its count) and two cycle
    // totals; per device its tenant, phase and three timestamps —
    // and no register words.
    const std::uint64_t words =
        1 + 10 * tenants.size() + 5 * config.devices;
    EXPECT_EQ(driver_bytes, 8 * words);
}

// ---------------------------------------------------------------------
// An armed --checkpoint-at= the run never reaches is reported when the
// SoC's owner is done with it, whatever the shape.
// ---------------------------------------------------------------------

/** Runs @p shape with --checkpoint-out= armed at a cycle no run
 *  reaches: the SoC warns, naming the cycle and the path, and writes
 *  nothing. */
template <typename Shape>
void
expectUnreachedCheckpointWarns(Shape &&shape)
{
    OptionsGuard guard;
    const std::string path = tmpPath("unreached.ckpt");
    telemetry::options().checkpointOut = path;
    telemetry::options().checkpointAt = 99'999'999'999;
    ::testing::internal::CaptureStderr();
    shape();
    const std::string err = ::testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find("before --checkpoint-at=99999999999; '" + path +
                       "' not written"),
              std::string::npos)
        << err;
    EXPECT_FALSE(std::filesystem::exists(path));
}

TEST(Checkpoint, UnreachedCheckpointAtWarnsForADevice)
{
    expectUnreachedCheckpointWarns([] {
        Rig rig(testGraph(3, 64), HwgcConfig{});
        rig.device->collect();
    });
}

TEST(Checkpoint, UnreachedCheckpointAtWarnsForAFleet)
{
    expectUnreachedCheckpointWarns([] {
        driver::FleetLab lab(fleetTestConfig(), fleetTestTenants());
        lab.run();
    });
}

TEST(Checkpoint, UnreachedCheckpointAtWarnsForASharedSoc)
{
    // The fuzz differ's devices=N shape: joined devices, no driver.
    expectUnreachedCheckpointWarns([] {
        mem::PhysMem mem;
        runtime::Heap heap(mem);
        core::Soc soc(mem, HwgcConfig{});
        core::HwgcDevice first(soc, heap.pageTable());
        core::HwgcDevice second(soc, heap.pageTable());
        soc.seal();
    });
}

TEST(Checkpoint, PostMortemReadsAFleetImage)
{
    // heap_inspector --post-mortem passes over the fleet's own chunks
    // and prints one status line per device from the SoC part.
    const std::string path = tmpPath("postmortem-fleet.ckpt");
    driver::FleetLab lab(fleetTestConfig(), fleetTestTenants());
    lab.runUntilCycle(200'000);
    ASSERT_TRUE(lab.soc().writeCheckpoint(path));

    const std::string command = std::string(HWGC_HEAP_INSPECTOR) +
        " --post-mortem '" + path + "' 2>&1";
    std::FILE *pipe = ::popen(command.c_str(), "r");
    ASSERT_NE(pipe, nullptr) << command;
    std::string out;
    char buf[4096];
    for (std::size_t n; (n = std::fread(buf, 1, sizeof buf, pipe)) > 0;) {
        out.append(buf, n);
    }
    const int status = ::pclose(pipe);
    ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0) << out;
    static const char *const status_names[] = {"Idle", "Marking",
                                               "Sweeping"};
    for (unsigned d = 0; d < lab.numDevices(); ++d) {
        const std::string line = "\nhwgc" + std::to_string(d) +
            ".mmio: status=" + status_names[lab.device(d).regs().status] +
            " ";
        EXPECT_NE(out.find(line), std::string::npos) << out;
    }
    EXPECT_NE(out.find("\nkernel: cycle=" + std::to_string(lab.now()) +
                       " "),
              std::string::npos)
        << out;
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// File format: the chunk directory is self-describing (the
// heap_inspector post-mortem view), and every corruption mode is a
// fatal error naming the file.
// ---------------------------------------------------------------------

TEST(Checkpoint, ListChunksShowsTopology)
{
    Rig rig(testGraph(3, 64), HwgcConfig{});
    const std::string path = tmpPath("list.ckpt");
    ASSERT_TRUE(rig.device->soc().writeCheckpoint(path));

    const auto chunks = checkpoint::Deserializer::listChunks(path);
    std::vector<std::string> names;
    for (const auto &chunk : chunks) {
        names.push_back(chunk.name);
    }
    ASSERT_GT(names.size(), 6u);
    EXPECT_EQ(names.front(), "config");
    EXPECT_EQ(names[1], "regs");
    EXPECT_EQ(names[2], "kernel");
    EXPECT_EQ(names.back(), "physmem");
    EXPECT_NE(std::find(names.begin(), names.end(), "traceQueue"),
              names.end());
}

void
spew(const std::string &path, const std::string &data)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(data.data(), std::streamsize(data.size()));
}

/** Writes a small valid checkpoint and returns its bytes. */
std::string
validImage(Rig &rig, const std::string &path)
{
    EXPECT_TRUE(rig.device->soc().writeCheckpoint(path));
    return slurp(path);
}

TEST(CheckpointDeathTest, RejectsBadMagic)
{
    Rig rig(testGraph(5, 64), HwgcConfig{});
    const std::string path = tmpPath("magic.ckpt");
    std::string data = validImage(rig, path);
    data[0] ^= 0x5A;
    spew(path, data);
    EXPECT_EXIT(rig.device->soc().restoreCheckpoint(path),
                ::testing::ExitedWithCode(1), "bad magic");
}

TEST(CheckpointDeathTest, RejectsWrongFormatVersion)
{
    Rig rig(testGraph(5, 64), HwgcConfig{});
    const std::string path = tmpPath("version.ckpt");
    std::string data = validImage(rig, path);
    data[8] = char(data[8] + 1); // u32 version, little-endian.
    spew(path, data);
    EXPECT_EXIT(rig.device->soc().restoreCheckpoint(path),
                ::testing::ExitedWithCode(1), "format version");
}

TEST(CheckpointDeathTest, RejectsTruncatedFile)
{
    Rig rig(testGraph(5, 64), HwgcConfig{});
    const std::string path = tmpPath("truncated.ckpt");
    const std::string data = validImage(rig, path);
    spew(path, data.substr(0, data.size() / 2));
    EXPECT_EXIT(rig.device->soc().restoreCheckpoint(path),
                ::testing::ExitedWithCode(1), "truncated");
}

TEST(CheckpointDeathTest, RejectsTrailingGarbage)
{
    Rig rig(testGraph(5, 64), HwgcConfig{});
    const std::string path = tmpPath("trailing.ckpt");
    const std::string data = validImage(rig, path);
    spew(path, data + std::string(16, '\x7f'));
    EXPECT_EXIT(rig.device->soc().restoreCheckpoint(path),
                ::testing::ExitedWithCode(1), "trailing data");
}

TEST(CheckpointDeathTest, FleetRejectsTrailingGarbage)
{
    const std::string path = tmpPath("fleet-trailing.ckpt");
    {
        driver::FleetLab lab(fleetTestConfig(), fleetTestTenants());
        ASSERT_TRUE(lab.soc().writeCheckpoint(path));
    }
    spew(path, slurp(path) + std::string(16, '\x7f'));
    EXPECT_EXIT(
        {
            driver::FleetLab lab(fleetTestConfig(), fleetTestTenants());
            lab.soc().restoreCheckpoint(path);
        },
        ::testing::ExitedWithCode(1), "trailing data");
}

TEST(CheckpointDeathTest, RejectsDifferentConfiguration)
{
    // Unit sizes and every memory-side parameter are architectural: a
    // restore into any other value fails up front, before a chunk is
    // parsed.
    struct Change
    {
        const char *field;
        core::MemModel memModel;
        void (*apply)(HwgcConfig &);
    };
    const Change changes[] = {
        {"markQueueEntries", core::MemModel::Ddr3,
         [](HwgcConfig &c) { c.markQueueEntries = 64; }},
        {"bus.throttleBytesPerCycle", core::MemModel::Ddr3,
         [](HwgcConfig &c) { c.bus.throttleBytesPerCycle = 1.0; }},
        {"dram.tCAS", core::MemModel::Ddr3,
         [](HwgcConfig &c) { c.dram.tCAS += 1; }},
        {"ptw.queueDepth", core::MemModel::Ddr3,
         [](HwgcConfig &c) { c.ptw.queueDepth += 1; }},
        {"ideal.latency", core::MemModel::Ideal,
         [](HwgcConfig &c) { c.ideal.latency += 1; }},
        {"ptwCacheParams.hitLatency", core::MemModel::Ddr3,
         [](HwgcConfig &c) { c.ptwCacheParams.hitLatency += 1; }},
    };
    for (const Change &change : changes) {
        SCOPED_TRACE(change.field);
        HwgcConfig config;
        config.memModel = change.memModel;
        Rig writer(testGraph(5, 64), config);
        const std::string path = tmpPath("config.ckpt");
        validImage(writer, path);

        change.apply(config);
        Rig reader(testGraph(5, 64), config);
        EXPECT_EXIT(reader.device->soc().restoreCheckpoint(path),
                    ::testing::ExitedWithCode(1),
                    "different device configuration");
    }
}

TEST(CheckpointDeathTest, RejectsMissingFile)
{
    Rig rig(testGraph(5, 64), HwgcConfig{});
    EXPECT_EXIT(rig.device->soc().restoreCheckpoint(tmpPath("nope.ckpt")),
                ::testing::ExitedWithCode(1), "cannot open");
}

} // namespace
} // namespace hwgc
