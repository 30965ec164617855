/**
 * @file
 * Google-benchmark microbenchmarks for the hot simulator primitives:
 * these guard the simulator's own performance (wall-clock per
 * simulated cycle), not the paper's results.
 */

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <cstring>

#include "bench_util.h"
#include "core/hwgc_device.h"
#include "core/mark_queue.h"
#include "mem/dram.h"
#include "mem/ideal_mem.h"
#include "runtime/heap.h"
#include "sim/random.h"
#include "workload/graph_gen.h"

namespace
{

using namespace hwgc;

void
BM_RngNext(benchmark::State &state)
{
    Rng rng(1);
    for (auto _ : state) {
        benchmark::DoNotOptimize(rng.next());
    }
}
BENCHMARK(BM_RngNext);

void
BM_PhysMemWordRoundTrip(benchmark::State &state)
{
    mem::PhysMem mem;
    Rng rng(2);
    for (auto _ : state) {
        const Addr addr = alignDown(rng.below(1 << 26), 8);
        mem.writeWord(addr, addr);
        benchmark::DoNotOptimize(mem.readWord(addr));
    }
}
BENCHMARK(BM_PhysMemWordRoundTrip);

void
BM_DramAtomicAccess(benchmark::State &state)
{
    mem::PhysMem mem;
    mem::Dram dram("d", mem::DramParams{}, mem);
    Rng rng(3);
    std::array<Word, mem::maxReqWords> scratch{};
    Tick now = 0;
    for (auto _ : state) {
        mem::MemRequest req;
        req.paddr = alignDown(rng.below(1 << 26), 64);
        req.size = 64;
        req.op = mem::Op::Read;
        req.timingOnly = true;
        benchmark::DoNotOptimize(dram.accessAtomic(req, now, scratch));
        now += 100;
    }
}
BENCHMARK(BM_DramAtomicAccess);

void
BM_HeapAllocate(benchmark::State &state)
{
    auto mem = std::make_unique<mem::PhysMem>();
    auto heap = std::make_unique<runtime::Heap>(*mem);
    std::uint64_t count = 0;
    for (auto _ : state) {
        if (++count == 2'000'000) { // Stay inside the 256 MiB reserve.
            state.PauseTiming();
            heap.reset();
            mem = std::make_unique<mem::PhysMem>();
            heap = std::make_unique<runtime::Heap>(*mem);
            count = 0;
            state.ResumeTiming();
        }
        benchmark::DoNotOptimize(heap->allocate(3, 4));
    }
}
BENCHMARK(BM_HeapAllocate);

void
BM_GraphBuild(benchmark::State &state)
{
    for (auto _ : state) {
        mem::PhysMem mem;
        runtime::Heap heap(mem);
        workload::GraphParams params;
        params.liveObjects = std::uint64_t(state.range(0));
        params.garbageObjects = params.liveObjects / 2;
        params.seed = 9;
        workload::GraphBuilder builder(heap, params);
        builder.build();
        benchmark::DoNotOptimize(heap.objects().size());
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_GraphBuild)->Arg(1000)->Arg(10000);

void
BM_ReachabilityOracle(benchmark::State &state)
{
    mem::PhysMem mem;
    runtime::Heap heap(mem);
    workload::GraphParams params;
    params.liveObjects = 10000;
    params.garbageObjects = 5000;
    params.seed = 10;
    workload::GraphBuilder builder(heap, params);
    builder.build();
    for (auto _ : state) {
        benchmark::DoNotOptimize(heap.computeReachable().size());
    }
}
BENCHMARK(BM_ReachabilityOracle);

void
BM_MarkQueueOnChip(benchmark::State &state)
{
    mem::PhysMem mem;
    mem::IdealMem ideal("m", mem::IdealMemParams{}, mem);
    mem::Interconnect bus("bus", mem::InterconnectParams{}, ideal);
    mem::BusPort port(bus, nullptr, "spill");
    core::HwgcConfig config;
    core::MarkQueue queue("q", config, &port, 0x6000'0000, 4 << 20);
    bus.setClientResponder(port.clientId(), &queue);
    for (auto _ : state) {
        queue.enqueue(0x1000'0000);
        benchmark::DoNotOptimize(queue.dequeue());
    }
}
BENCHMARK(BM_MarkQueueOnChip);

/**
 * Device-level kernel A/B: run the same full GC pause under the dense
 * and event kernels, timing host wall-clock of the simulation only
 * (heap and graph construction excluded). Both kernels must deliver
 * the same simulated cycle count and mark count; the event kernel
 * must beat dense. @p include_dense skips the (slow) dense reference
 * for the large-heap configuration, which then records event-kernel
 * speed alone.
 */
void
runKernelAb(const char *label, const workload::GraphParams &graph,
            bench::BenchRecord &record, bool include_dense = true)
{
    struct Run
    {
        double hostSeconds = 0.0;
        Tick simCycles = 0;
        std::uint64_t executed = 0;
        std::uint64_t marked = 0;
    };
    auto run_one = [&graph](KernelMode kernel) {
        mem::PhysMem mem;
        runtime::Heap heap(mem);
        workload::GraphBuilder builder(heap, graph);
        builder.build();
        heap.clearAllMarks();
        heap.publishRoots();
        core::HwgcConfig config;
        config.kernel = kernel;
        core::HwgcDevice device(mem, heap.pageTable(), config);
        device.configure(heap);
        bench::HostTimer timer;
        const core::HwPhaseResult result = device.collect();
        Run r;
        r.hostSeconds = timer.seconds();
        r.simCycles = result.cycles;
        r.executed = device.system().executedCycles();
        r.marked = result.objectsMarked;
        return r;
    };
    // Best of three per kernel: each run rebuilds an identical heap,
    // so sim results are deterministic and only host time varies.
    auto best_of = [&run_one](KernelMode kernel) {
        Run best = run_one(kernel);
        for (int i = 0; i < 2; ++i) {
            const Run r = run_one(kernel);
            if (r.hostSeconds < best.hostSeconds) {
                best = r;
            }
        }
        return best;
    };

    const Run event = best_of(KernelMode::Event);
    if (include_dense) {
        const Run dense = best_of(KernelMode::Dense);
        if (dense.simCycles != event.simCycles ||
            dense.marked != event.marked) {
            std::fprintf(stderr,
                         "kernel A/B diverged: dense %llu cycles / %llu "
                         "marked, event %llu cycles / %llu marked\n",
                         (unsigned long long)dense.simCycles,
                         (unsigned long long)dense.marked,
                         (unsigned long long)event.simCycles,
                         (unsigned long long)event.marked);
            std::exit(1);
        }
        bench::printKernelSpeed(label, "dense", dense.hostSeconds,
                                double(dense.simCycles));
        const double speedup = dense.hostSeconds / event.hostSeconds;
        std::printf("%s: event-kernel host speedup %.2fx "
                    "(evaluated %llu of %llu cycles, %.1f%%)\n",
                    label, speedup, (unsigned long long)event.executed,
                    (unsigned long long)dense.executed,
                    100.0 * double(event.executed) /
                        double(dense.executed));
    }
    // Deterministic cross-run record: the kernels are checked
    // identical above, so the event run's numbers are canonical.
    const char *slash = std::strrchr(label, '/');
    const std::string key = slash != nullptr ? slash + 1 : label;
    record.metric(key + ".sim_cycles", std::uint64_t(event.simCycles));
    record.metric(key + ".event_executed", event.executed);
    record.metric(key + ".marked", event.marked);

    bench::printKernelSpeed(label, "event", event.hostSeconds,
                            double(event.simCycles));
}

void
runKernelAbSuite()
{
    // Perf-trajectory record (BENCH_micro.json via --bench-out=).
    // Attribution stays empty here on purpose: attaching the profiler
    // would slow the very kernel loops this suite wall-clocks.
    bench::BenchRecord record("micro");
    bench::HostTimer suite_timer;
    // Latency-bound: one root, a pointer chain, no arrays — the
    // tracer chases dependent DRAM accesses one at a time and the
    // machine idles for tens of cycles per hop. This is the shape
    // the event kernel exists for.
    workload::GraphParams chain;
    chain.liveObjects = 20000;
    chain.garbageObjects = 2000;
    chain.numRoots = 1;
    chain.avgRefs = 1.0;
    chain.maxRefs = 1;
    chain.minRefs = 1; // Exactly one ref each: a single 20k-deep chain.
    chain.arrayFraction = 0.0;
    chain.shareProb = 0.0;
    chain.localityBias = 0.0;
    chain.seed = 17;
    runKernelAb("bench_micro/latency", chain, record);

    // Throughput-bound: wide graph, 32 roots, full marker MLP keeps
    // the memory system saturated, so few cycles are skippable and
    // the event kernel only has its lower bookkeeping to offer.
    workload::GraphParams wide;
    wide.liveObjects = 30000;
    wide.garbageObjects = 15000;
    wide.numRoots = 32;
    wide.seed = 13;
    runKernelAb("bench_micro/throughput", wide, record);

    // Large heap: event-kernel speed on a working set several times
    // the size of the others. Dense would dominate the wall clock
    // here, so it is left out.
    workload::GraphParams large;
    large.liveObjects = 120000;
    large.garbageObjects = 60000;
    large.numRoots = 64;
    large.seed = 29;
    runKernelAb("bench_micro/large-heap", large, record,
                /*include_dense=*/false);

    record.write(suite_timer.seconds());
}

} // namespace

int
main(int argc, char **argv)
{
    hwgc::telemetry::Session session(argc, argv);
    runKernelAbSuite();
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
        return 1;
    }
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
