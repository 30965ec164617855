/**
 * @file
 * Fleet-mode tests: a device array sharing one interconnect + DRAM,
 * time-multiplexed across tenant heaps, must be bit-identical across
 * the dense and event kernels, checkpoint/restore mid-service
 * without perturbing the run, honor per-tenant pacing budgets, and
 * dispatch in the order the configured policy defines. A fleet's SoC
 * owns the run as a device's does: its watchdog report, crash dump
 * and observers are covered too, and so is the crash-hook registry
 * (one hook per SoC, LIFO, all of them run).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "driver/fleet.h"
#include "instance_ids.h"
#include "options_guard.h"
#include "sim/checkpoint.h"
#include "sim/logging.h"
#include "sim/profiler.h"
#include "sim/telemetry.h"
#include "tmp_path.h"
#include "workload/dacapo.h"

namespace hwgc
{
namespace
{

/** Small tenants so the dense-kernel leg stays test-sized. */
std::vector<driver::TenantParams>
tinyTenants(unsigned n)
{
    std::vector<driver::TenantParams> tenants;
    for (unsigned t = 0; t < n; ++t) {
        driver::TenantParams p;
        std::string name(1, 't');
        name += std::to_string(t);
        p.name = std::move(name);
        p.graph = workload::smokeProfile().graph;
        p.graph.seed = 1000 + t;
        p.churnPerGC = 0.3;
        p.gcPeriodCycles = 200'000;
        // Alternate tight/loose deadlines so EDF has something to
        // reorder when requests queue.
        p.deadlineMs = (t % 2) == 0 ? 0.2 : 5.0;
        p.sloMs = 1.0;
        p.seed = 10 + t;
        p.latency.issueIntervalMs = 0.05;
        p.latency.totalQueries = 2000;
        p.latency.warmupQueries = 100;
        p.latency.serviceMeanMs = 0.01;
        p.latency.serviceJitterMs = 0.01;
        p.latency.seed = 77 + t;
        tenants.push_back(p);
    }
    return tenants;
}

driver::FleetConfig
tinyConfig(unsigned devices,
           driver::GcPolicy policy = driver::GcPolicy::Fifo)
{
    driver::FleetConfig config;
    config.devices = devices;
    config.policy = policy;
    config.gcsPerTenant = 2;
    return config;
}

/** Everything a fleet run must reproduce bit-for-bit. */
struct FleetSig
{
    Tick finalCycle = 0;
    std::uint64_t totalGcs = 0;
    std::vector<std::uint64_t> perTenant; //!< gcs, stw, queue triples.
    std::string statsJson;

    bool
    operator==(const FleetSig &o) const
    {
        return finalCycle == o.finalCycle && totalGcs == o.totalGcs &&
            perTenant == o.perTenant && statsJson == o.statsJson;
    }
};

FleetSig
signatureOf(driver::FleetLab &lab)
{
    FleetSig sig;
    sig.finalCycle = lab.now();
    sig.totalGcs = lab.totalGcs();
    for (const auto &s : lab.stats()) {
        sig.perTenant.push_back(s.gcs);
        sig.perTenant.push_back(s.stwCycles);
        sig.perTenant.push_back(s.queueCycles);
    }
    std::ostringstream os;
    telemetry::StatsRegistry::global().exportJson(os, {});
    sig.statsJson = normalizeInstanceIds(os.str());
    return sig;
}

/** On mismatch, point at the first divergence instead of dumping. */
void
expectSameSig(const FleetSig &ref, const FleetSig &run)
{
    EXPECT_EQ(ref.finalCycle, run.finalCycle);
    EXPECT_EQ(ref.totalGcs, run.totalGcs);
    EXPECT_EQ(ref.perTenant, run.perTenant);
    if (ref.statsJson != run.statsJson) {
        std::size_t i = 0;
        while (i < ref.statsJson.size() && i < run.statsJson.size() &&
               ref.statsJson[i] == run.statsJson[i]) {
            ++i;
        }
        const std::size_t begin = i > 120 ? i - 120 : 0;
        ADD_FAILURE() << "stats JSON diverged at byte " << i
                      << "\n  ref: ..." << ref.statsJson.substr(begin, 200)
                      << "\n  run: ..." << run.statsJson.substr(begin, 200);
    }
}

/** Scalar @p name of group @p path in stats export @p json, or
 *  ~0 when the export has no such group. */
std::uint64_t
exportedScalar(const std::string &json, const std::string &path,
               const std::string &name)
{
    const std::string key = "\"" + name + "\": ";
    const std::size_t group = json.find("\"" + path + "\": {");
    const std::size_t at =
        group == std::string::npos ? group : json.find(key, group);
    if (at == std::string::npos) {
        return ~std::uint64_t(0);
    }
    return std::stoull(json.substr(at + key.size()));
}

TEST(FleetStats, ConsecutiveFleetsKeepTheirOwnDeviceGroups)
{
    // A fleet owns its devices' stats paths ("system.fleetN.hwgc<i>"),
    // so a second fleet in the process neither collides with the
    // first's device groups nor supersedes their values.
    telemetry::StatsRegistry::global().clearRetired();
    std::vector<std::pair<std::string, std::uint64_t>> marked;
    for (const unsigned tenants : {2u, 3u}) {
        driver::FleetLab lab(tinyConfig(2), tinyTenants(tenants));
        lab.run();
        for (unsigned d = 0; d < lab.numDevices(); ++d) {
            core::HwgcDevice &device = lab.device(d);
            const std::string &prefix = device.statsPrefix();
            EXPECT_EQ(prefix.substr(prefix.rfind('.')),
                      ".hwgc" + std::to_string(d));
            marked.emplace_back(prefix + ".marker",
                                device.marker().newlyMarked());
        }
    }
    ASSERT_EQ(marked.size(), 4u);
    EXPECT_NE(marked[0].first, marked[2].first);

    std::ostringstream os;
    telemetry::StatsRegistry::global().exportJson(os, {});
    const std::string json = os.str();
    for (const auto &[path, value] : marked) {
        EXPECT_EQ(path.rfind("system.fleet", 0), 0u) << path;
        EXPECT_EQ(exportedScalar(json, path, "newlyMarked"), value)
            << path;
        EXPECT_NE(json.find("\"" + path + ".tlb\": {"),
                  std::string::npos)
            << path;
    }
    EXPECT_EQ(json.find("\"system.hwgc"), std::string::npos);
    telemetry::StatsRegistry::global().clearRetired();
}

FleetSig
runFleet(driver::FleetConfig config, KernelMode kernel,
         unsigned tenants = 4)
{
    config.hwgc.kernel = kernel;
    telemetry::StatsRegistry::global().clearRetired();
    driver::FleetLab lab(config, tinyTenants(tenants));
    lab.run();
    return signatureOf(lab);
}

void
expectFleetMatrixAgrees(const driver::FleetConfig &config,
                        unsigned tenants = 4)
{
    const auto ref = runFleet(config, KernelMode::Dense, tenants);
    EXPECT_GT(ref.totalGcs, 0u);
    expectSameSig(ref, runFleet(config, KernelMode::Event, tenants));
}

// ---------------------------------------------------------------------
// Kernel matrix on fleet shapes.
// ---------------------------------------------------------------------

TEST(FleetMatrix, TwoDevicesFourTenantsSharedDram)
{
    expectFleetMatrixAgrees(tinyConfig(2));
}

TEST(FleetMatrix, DeadlinePolicyAgreesAcrossKernels)
{
    expectFleetMatrixAgrees(
        tinyConfig(2, driver::GcPolicy::Deadline));
}

TEST(FleetMatrix, PacedTenantsAgreeAcrossKernels)
{
    // Per-tenant bandwidth budgets route through the interconnect's
    // group token buckets; pacing must not break kernel equivalence.
    driver::FleetConfig config = tinyConfig(2);
    auto tenants = tinyTenants(4);
    tenants[0].paceBytesPerCycle = 1.0;
    tenants[2].paceBytesPerCycle = 0.5;

    // Each lab lives in its own scope: its stats groups must retire
    // before the next lab exports, or they leak into the comparison.
    FleetSig ref;
    {
        config.hwgc.kernel = KernelMode::Dense;
        telemetry::StatsRegistry::global().clearRetired();
        driver::FleetLab dense(config, tenants);
        dense.run();
        ref = signatureOf(dense);
    }
    config.hwgc.kernel = KernelMode::Event;
    telemetry::StatsRegistry::global().clearRetired();
    driver::FleetLab event(config, tenants);
    event.run();
    expectSameSig(ref, signatureOf(event));

    // Pacing must actually bite: the shared bus saw throttled grants.
    EXPECT_GT(event.bus().groupThrottledGrants(), 0u);
}

TEST(FleetMatrix, SingleDeviceManyTenantsSerializes)
{
    // One device, four tenants: every collection queues; the FIFO
    // order is still deterministic across kernels.
    expectFleetMatrixAgrees(tinyConfig(1));
}

// ---------------------------------------------------------------------
// Service-loop behaviour.
// ---------------------------------------------------------------------

TEST(Fleet, EveryTenantFinishesItsGcs)
{
    auto config = tinyConfig(2);
    config.hwgc.kernel = KernelMode::Event;
    driver::FleetLab lab(config, tinyTenants(4));
    lab.run();
    EXPECT_TRUE(lab.done());
    EXPECT_EQ(lab.totalGcs(), 8u);
    for (const auto &s : lab.stats()) {
        EXPECT_EQ(s.gcs, 2u);
        EXPECT_GT(s.stwCycles, 0u);
    }
}

TEST(Fleet, MeasureFillsPercentilesAndWindows)
{
    auto config = tinyConfig(2);
    config.hwgc.kernel = KernelMode::Event;
    driver::FleetLab lab(config, tinyTenants(2));
    lab.run();
    for (const auto &s : lab.measure()) {
        EXPECT_EQ(s.pausesMs.size(), 2u);
        EXPECT_FALSE(s.latency.samples.empty());
        EXPECT_GE(s.p99Ms, s.p50Ms);
        EXPECT_GE(s.p999Ms, s.p99Ms);
        EXPECT_GE(s.maxMs, s.p999Ms);
    }
}

TEST(Fleet, QueueCyclesAppearWhenDevicesAreScarce)
{
    // 1 device + short periods: tenants must wait for the device.
    auto config = tinyConfig(1);
    config.hwgc.kernel = KernelMode::Event;
    driver::FleetLab lab(config, tinyTenants(4));
    lab.run();
    std::uint64_t queued = 0;
    for (const auto &s : lab.stats()) {
        queued += s.queueCycles;
    }
    EXPECT_GT(queued, 0u);
}

TEST(FleetDeathTest, RejectsZeroDevicesAndZeroTenants)
{
    EXPECT_DEATH(driver::FleetLab(tinyConfig(0), tinyTenants(1)),
                 "at least one device");
    EXPECT_DEATH(driver::FleetLab(tinyConfig(1), {}),
                 "at least one tenant");
}

TEST(FleetDeathTest, RejectsABadTenantPaceNamingTheField)
{
    for (const double pace : {-2.0, 1e-30}) {
        auto tenants = tinyTenants(2);
        tenants[1].paceBytesPerCycle = pace;
        EXPECT_EXIT(driver::FleetLab(tinyConfig(1), tenants),
                    ::testing::ExitedWithCode(1),
                    "tenant '" + tenants[1].name +
                        "': paceBytesPerCycle .* is not a bandwidth")
            << pace;
    }
}

TEST(FleetDeathTest, CompressedRefsCapTheAddressSpace)
{
    auto config = tinyConfig(2);
    config.hwgc.compressRefs = true;
    EXPECT_DEATH(driver::FleetLab(config, tinyTenants(17)),
                 "32 GiB");
}

// ---------------------------------------------------------------------
// Scheduling policies.
// ---------------------------------------------------------------------

TEST(Scheduler, FifoPicksTheEarliestTrigger)
{
    const auto s = driver::makeScheduler(driver::GcPolicy::Fifo);
    const std::vector<driver::GcRequest> pending = {
        {0, 100, 200}, {1, 50, 900}, {2, 50, 800}};
    // Earliest trigger wins; ties break toward the lower tenant id.
    EXPECT_EQ(s->pick(pending, 1000), 1u);
    EXPECT_FALSE(s->concurrentMark());
}

TEST(Scheduler, DeadlinePicksTheTightestDeadline)
{
    const auto s = driver::makeScheduler(driver::GcPolicy::Deadline);
    const std::vector<driver::GcRequest> pending = {
        {0, 10, 900}, {1, 60, 200}, {2, 50, 200}};
    // Tightest deadline wins even though tenant 0 triggered first;
    // the deadline tie breaks toward the earlier trigger.
    EXPECT_EQ(s->pick(pending, 1000), 2u);
}

TEST(Scheduler, OverlapIsEdfWithConcurrentMark)
{
    const auto s =
        driver::makeScheduler(driver::GcPolicy::ConcurrentOverlap);
    EXPECT_TRUE(s->concurrentMark());
    EXPECT_STREQ(s->name(), "overlap");
    EXPECT_EQ(driver::parseGcPolicy("overlap"),
              driver::GcPolicy::ConcurrentOverlap);
}

TEST(Scheduler, ConcurrentMarkShrinksTheStwWindow)
{
    // Same dispatch order (EDF == overlap), but overlap's pause
    // windows start at the sweep handoff: strictly less STW.
    auto config = tinyConfig(2, driver::GcPolicy::Deadline);
    config.hwgc.kernel = KernelMode::Event;
    driver::FleetLab edf(config, tinyTenants(4));
    edf.run();
    config.policy = driver::GcPolicy::ConcurrentOverlap;
    driver::FleetLab overlap(config, tinyTenants(4));
    overlap.run();

    EXPECT_EQ(edf.now(), overlap.now());
    std::uint64_t edf_stw = 0, overlap_stw = 0;
    for (unsigned t = 0; t < 4; ++t) {
        edf_stw += edf.stats()[t].stwCycles;
        overlap_stw += overlap.stats()[t].stwCycles;
    }
    EXPECT_LT(overlap_stw, edf_stw);
}

// ---------------------------------------------------------------------
// Checkpoint/restore.
// ---------------------------------------------------------------------

FleetSig
measureSig(driver::FleetLab &lab)
{
    FleetSig sig = signatureOf(lab);
    for (const auto &s : lab.measure()) {
        // Fold the replayed percentiles in as raw bits.
        for (const double d : {s.p50Ms, s.p99Ms, s.p999Ms, s.maxMs}) {
            std::uint64_t bits;
            std::memcpy(&bits, &d, sizeof bits);
            sig.perTenant.push_back(bits);
        }
        sig.perTenant.push_back(s.sloViolations);
    }
    return sig;
}

TEST(FleetCheckpoint, MidServiceRestoreFinishesBitIdentically)
{
    const std::string path = tmpPath("fleet_ckpt_test.hwgc");
    auto config = tinyConfig(2);
    config.hwgc.kernel = KernelMode::Event;

    // Reference: an uninterrupted run. Each lab lives in its own
    // scope so its stats groups retire before the next lab exports.
    FleetSig ref;
    {
        telemetry::StatsRegistry::global().clearRetired();
        driver::FleetLab whole(config, tinyTenants(4));
        whole.run();
        ref = measureSig(whole);
    }

    // Split run: stop mid-service (some device is mid-phase at
    // 600k with these periods), checkpoint, and finish.
    Tick ckpt_at = 0;
    {
        telemetry::StatsRegistry::global().clearRetired();
        driver::FleetLab first(config, tinyTenants(4));
        first.runUntilCycle(600'000); // Rounds up to the quantum grid.
        ASSERT_FALSE(first.done());
        ckpt_at = first.now();
        ASSERT_TRUE(first.soc().writeCheckpoint(path));
        first.run();
        expectSameSig(ref, measureSig(first));
    }

    // Restore into a fresh fleet and finish from the image.
    telemetry::StatsRegistry::global().clearRetired();
    driver::FleetLab restored(config, tinyTenants(4));
    restored.soc().restoreCheckpoint(path);
    EXPECT_EQ(restored.now(), ckpt_at);
    restored.run();
    expectSameSig(ref, measureSig(restored));
    std::remove(path.c_str());
}

TEST(FleetCheckpoint, RestoreCrossesKernels)
{
    // Save under the event kernel, restore under dense: kernel mode
    // is a host knob, not simulated state.
    const std::string path = tmpPath("fleet_ckpt_kernel.hwgc");
    auto config = tinyConfig(2);
    config.hwgc.kernel = KernelMode::Event;
    driver::FleetLab event_ref(config, tinyTenants(2));
    event_ref.run();
    const Tick final_cycle = event_ref.now();

    driver::FleetLab saver(config, tinyTenants(2));
    saver.runUntilCycle(400'000);
    ASSERT_TRUE(saver.soc().writeCheckpoint(path));

    config.hwgc.kernel = KernelMode::Dense;
    driver::FleetLab restored(config, tinyTenants(2));
    restored.soc().restoreCheckpoint(path);
    restored.run();
    EXPECT_EQ(restored.now(), final_cycle);
    std::remove(path.c_str());
}

TEST(FleetCheckpoint, OptionsSaveAndResumeMatchAnUninterruptedRun)
{
    OptionsGuard guard;
    telemetry::Options &opts = telemetry::options();
    const std::string path = tmpPath("fleet_ckpt_options.hwgc");
    auto config = tinyConfig(2);
    config.hwgc.kernel = KernelMode::Event;
    auto fleet_run = [&] {
        telemetry::StatsRegistry::global().clearRetired();
        driver::FleetLab lab(config, tinyTenants(4));
        lab.run();
        return measureSig(lab);
    };
    const FleetSig ref = fleet_run();

    // --checkpoint-out= --checkpoint-at= writes at the first quantum
    // boundary at or after the cycle, and the run goes on unperturbed.
    opts.checkpointOut = path;
    opts.checkpointAt = 600'000;
    expectSameSig(ref, fleet_run());
    {
        driver::FleetLab probe(config, tinyTenants(4));
        probe.soc().restoreCheckpoint(path);
        EXPECT_EQ(probe.now(), 600'064u); // 586 quanta of 1024.
        EXPECT_FALSE(probe.done());
    }

    // --checkpoint-in= resumes there, once, and ends where the
    // uninterrupted run did.
    opts.checkpointOut.clear();
    opts.checkpointAt = 0;
    opts.checkpointIn = path;
    expectSameSig(ref, fleet_run());
    EXPECT_EQ(opts.checkpointIn, "");

    // --checkpoint-out= alone writes the finished fleet.
    opts.checkpointOut = path;
    fleet_run();
    driver::FleetLab probe(config, tinyTenants(4));
    probe.soc().restoreCheckpoint(path);
    EXPECT_EQ(probe.now(), ref.finalCycle);
    EXPECT_TRUE(probe.done());
    std::remove(path.c_str());
}

TEST(FleetCheckpointDeathTest, MissingImageFailsNamingItsPath)
{
    EXPECT_DEATH(
        {
            telemetry::options().checkpointIn = "/nonexistent/none.ckpt";
            driver::FleetLab lab(tinyConfig(1), tinyTenants(1));
            lab.run();
        },
        "/nonexistent/none.ckpt");
}

TEST(FleetCheckpointDeathTest, RejectsMismatchedConfiguration)
{
    const std::string path = tmpPath("fleet_ckpt_mismatch.hwgc");
    auto config = tinyConfig(2);
    config.hwgc.kernel = KernelMode::Event;
    driver::FleetLab saver(config, tinyTenants(2));
    saver.runUntilCycle(100'000);
    ASSERT_TRUE(saver.soc().writeCheckpoint(path));

    auto other = tinyConfig(1); // Different device count.
    other.hwgc.kernel = KernelMode::Event;
    EXPECT_DEATH(
        {
            driver::FleetLab lab(other, tinyTenants(2));
            lab.soc().restoreCheckpoint(path);
        },
        "different");
    std::remove(path.c_str());
}

/** Saves a 2-tenant fleet mid-service to @p path. */
void
saveMidService(const std::string &path)
{
    driver::FleetLab saver(tinyConfig(2), tinyTenants(2));
    saver.runUntilCycle(400'000);
    ASSERT_FALSE(saver.done());
    ASSERT_TRUE(saver.soc().writeCheckpoint(path));
}

TEST(FleetCheckpointDeathTest, RejectsADifferentTenantChurn)
{
    // Churn shapes every post-GC mutation, so a restore under another
    // value would finish at a cycle the saving fleet never reaches.
    const std::string path = tmpPath("fleet_ckpt_churn.hwgc");
    saveMidService(path);
    auto tenants = tinyTenants(2);
    tenants[1].churnPerGC = 0.9;
    EXPECT_DEATH(
        {
            driver::FleetLab lab(tinyConfig(2), tenants);
            lab.soc().restoreCheckpoint(path);
        },
        "different configuration");
}

TEST(FleetCheckpointDeathTest, RejectsADifferentTenantGraph)
{
    const std::string path = tmpPath("fleet_ckpt_graph.hwgc");
    saveMidService(path);
    auto tenants = tinyTenants(2);
    tenants[0].graph.avgRefs += 1.0;
    EXPECT_DEATH(
        {
            driver::FleetLab lab(tinyConfig(2), tenants);
            lab.soc().restoreCheckpoint(path);
        },
        "builder snapshot '.*fleet_ckpt_graph.hwgc' was taken under "
        "different GraphParams");
}

TEST(FleetCheckpointDeathTest, WatchdogDumpsTheLiveReportAndACrashImage)
{
    // The fleet's SoC arms the watchdog with the live report and, with
    // --checkpoint-out= armed, the crash hook that dumps the image.
    namespace fs = std::filesystem;
    const std::string out = tmpPath("fleet_watchdog.hwgc");
    EXPECT_DEATH(
        {
            telemetry::options().checkpointOut = out;
            telemetry::options().watchdogSecs = 1e-9;
            telemetry::options().profile = true;
            driver::FleetLab lab(tinyConfig(2), tinyTenants(2));
            lab.run();
        },
        "watchdog: system\\.fleet[0-9]+ made no progress.*"
        "cycle accounting: system\\.fleet[0-9]+.*\"groups\".*"
        "crash dump: wrote");

    // The child's pid names the artifacts: find them by prefix.
    const std::string stem = fs::path(out).filename().string() + ".crash.";
    std::vector<std::string> dumps;
    for (const auto &entry :
         fs::directory_iterator(fs::path(out).parent_path())) {
        if (entry.path().filename().string().rfind(stem, 0) == 0) {
            dumps.push_back(entry.path().string());
        }
    }
    std::sort(dumps.begin(), dumps.end());
    ASSERT_EQ(dumps.size(), 2u) << "want the image and its stats dump";
    const std::string &image = dumps[0];
    EXPECT_EQ(dumps[1], image + ".stats.json");
    std::vector<std::string> names;
    for (const auto &chunk : checkpoint::Deserializer::listChunks(image)) {
        names.push_back(chunk.name);
    }
    const std::vector<std::string> fleet_chunks = {
        "fleetcfg", "driver", "heap0", "builder0", "heap1",
        "builder1", "config", "hwgc0.regs", "hwgc1.regs", "kernel"};
    ASSERT_GT(names.size(), fleet_chunks.size());
    EXPECT_EQ(std::vector<std::string>(names.begin(),
                                       names.begin() + fleet_chunks.size()),
              fleet_chunks);
    for (const std::string &dump : dumps) {
        std::remove(dump.c_str());
    }
}

// ---------------------------------------------------------------------
// Observers: a fleet's SoC attaches the profiler and the activity
// tracer, and neither changes the run.
// ---------------------------------------------------------------------

/** Drops the "<prefix>.profile.<comp>" sections of a registry dump:
 *  only the profiled run has them. */
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

TEST(FleetTelemetry, ObservedRunMatchesAnUnobservedOne)
{
    OptionsGuard guard;
    auto config = tinyConfig(2);
    config.hwgc.kernel = KernelMode::Event;
    auto fleet_run = [&] {
        telemetry::StatsRegistry::global().clearRetired();
        driver::FleetLab lab(config, tinyTenants(3));
        lab.run();
        FleetSig sig = measureSig(lab);
        const telemetry::CycleProfiler *prof = lab.soc().profiler();
        EXPECT_EQ(prof != nullptr, telemetry::options().profile);
        if (prof != nullptr) {
            // The accounting identity, for every component of the SoC.
            EXPECT_EQ(prof->observedCycles(), lab.now());
            for (std::size_t i = 0; i < prof->numComponents(); ++i) {
                EXPECT_EQ(prof->accounted(i), prof->observedCycles())
                    << prof->componentName(i);
            }
        }
        // Every statistic but the profiler's own groups must match;
        // the export also carries the observed run's snapshot rows.
        std::ostringstream os;
        telemetry::StatsRegistry::global().dump(os);
        sig.statsJson = normalizeInstanceIds(dropProfileSections(os.str()));
        return sig;
    };
    const FleetSig plain = fleet_run();

    const std::string trace = tmpPath("fleet_trace.json");
    telemetry::options().profile = true;
    telemetry::options().statsInterval = 50'000;
    telemetry::TraceWriter::global().open(trace);
    const FleetSig observed = fleet_run();
    telemetry::TraceWriter::global().close();
    telemetry::StatsRegistry::global().clearSnapshots();

    expectSameSig(plain, observed);
    std::ifstream in(trace);
    const std::string events = normalizeInstanceIds(std::string(
        std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()));
    EXPECT_NE(events.find("\"system.fleet#.hwgc0.marker\""),
              std::string::npos)
        << "no activity track for device 0's marker";
    std::remove(trace.c_str());
}

// ---------------------------------------------------------------------
// Crash-hook registry: one hook per session, LIFO, all of them run.
// ---------------------------------------------------------------------

void
printingHook(void *ctx)
{
    std::fprintf(stderr, "hook[%s];", static_cast<const char *>(ctx));
}

char dev0Ctx[] = "dev0";
char dev1Ctx[] = "dev1";
char liveCtx[] = "live";
char goneCtx[] = "gone";

TEST(CrashHookDeathTest, EveryHookRunsMostRecentFirst)
{
    // Two armed sessions; a panic must dump both, newest first (a
    // single-slot hook would drop the first one). The hook
    // output is contiguous on stderr right after the panic line.
    EXPECT_DEATH(
        {
            addCrashHook(&printingHook, dev0Ctx);
            addCrashHook(&printingHook, dev1Ctx);
            panic("fleet boom");
        },
        "hook\\[dev1\\];hook\\[dev0\\];");
}

TEST(CrashHookDeathTest, RemovedHooksDoNotRun)
{
    // 'gone' was registered last; were removeCrashHook broken, LIFO
    // order would print hook[gone] between the panic line and
    // hook[live], and the newline-anchored match would fail.
    EXPECT_DEATH(
        {
            addCrashHook(&printingHook, liveCtx);
            const unsigned id = addCrashHook(&printingHook, goneCtx);
            removeCrashHook(id);
            panic("boom");
        },
        "boom\nhook\\[live\\];");
}

} // namespace
} // namespace hwgc
