/**
 * @file
 * Extension bench — bandwidth throttling (paper §VII: "This
 * interference could be reduced by communicating with the memory
 * controller to only use residual bandwidth" and "Switching these
 * units on and off would allow a concurrent GC to throttle or boost
 * tracing"). Sweeps a token-bucket cap on the unit's bus and reports
 * the mark-time / bandwidth trade-off.
 *
 * With --bench-out= it also writes BENCH_ext_throttle.json: per cap,
 * the mark and sweep cycles and DRAM bytes summed over the pauses,
 * the bus's starved grants, and the cycles the kernel executed — so
 * the global-throttle path is gated exactly by bench_compare.py.
 */

#include <cstdio>

#include "bench_util.h"
#include "driver/gc_lab.h"

int
main(int argc, char **argv)
{
    hwgc::telemetry::Session session(argc, argv);
    using namespace hwgc;
    bench::banner("Extension: bandwidth throttling (Sec VII)",
                  "graceful GC pacing against a bytes/cycle budget");

    bench::BenchRecord record("ext_throttle");
    bench::HostTimer suite_timer;
    const auto profile = workload::dacapoProfile("avrora");

    std::printf("  %-12s %12s %14s %14s\n", "cap (GB/s)", "mark",
                "DRAM GB/s", "stall grants");
    for (const double cap : {0.0, 8.0, 4.0, 2.0, 1.0, 0.5}) {
        driver::LabConfig config;
        config.runSw = false;
        config.hwgc.bus.throttleBytesPerCycle = cap; // 1 B/cyc = 1 GB/s.
        driver::GcLab lab(profile, config);
        lab.run(2);
        const auto &r = lab.results().back();
        const double seconds =
            double(r.hwMarkCycles + r.hwSweepCycles) / coreClockHz;
        const double gbps = double(r.hw.dramBytes) / seconds / 1e9;
        std::uint64_t mark = 0, sweep = 0, dram_bytes = 0;
        std::uint64_t stall_grants = 0;
        for (const auto &pause : lab.results()) {
            mark += pause.hwMarkCycles;
            sweep += pause.hwSweepCycles;
            dram_bytes += pause.hw.dramBytes;
            stall_grants += pause.hw.throttledGrants;
        }
        if (cap == 0.0) {
            std::printf("  %-12s", "unlimited");
        } else {
            std::printf("  %-12.1f", cap);
        }
        std::printf(" %9.3f ms %11.3f GB/s %14llu\n",
                    bench::msFromCycles(lab.avgHwMarkCycles()), gbps,
                    (unsigned long long)stall_grants);

        char key[32];
        std::snprintf(key, sizeof key, "cap_%g.", cap);
        const std::string prefix = key;
        record.metric(prefix + "mark_cycles", mark);
        record.metric(prefix + "sweep_cycles", sweep);
        record.metric(prefix + "dram_bytes", dram_bytes);
        record.metric(prefix + "throttled_grants", stall_grants);
        record.metric(prefix + "event_executed",
                      lab.device().system().executedCycles());
    }
    std::printf("\n  (measured DRAM bandwidth stays under each cap; "
                "mark time degrades smoothly)\n");
    record.write(suite_timer.seconds());
    return 0;
}
