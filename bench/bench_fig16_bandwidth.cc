/**
 * @file
 * Fig 16 — memory bandwidth over time during the last GC pause of
 * avrora, CPU vs GC unit, based on 64B-line-equivalent traffic.
 *
 * The paper: "our unit is more effective at exploiting memory
 * bandwidth, particularly during the mark phase".
 *
 * The second half sweeps the unit's bus bandwidth cap downwards and
 * checks the cycle-accounting profiler's attribution against the
 * paper's narrative: as bandwidth shrinks, the top mark-phase stall
 * cause must become DRAM bandwidth (the sweep exits nonzero if it
 * does not — the attribution is deterministic).
 */

#include <cstdio>

#include "bench_util.h"
#include "driver/gc_lab.h"

int
main(int argc, char **argv)
{
    hwgc::telemetry::Session session(argc, argv);
    using namespace hwgc;
    bench::banner("Fig 16: memory bandwidth, last avrora GC pause",
                  "the unit sustains much higher DRAM bandwidth");

    // Profile all runs: observational, so the bandwidth series and
    // cycle counts below are unchanged by it.
    telemetry::options().profile = true;
    bench::BenchRecord record("fig16_bandwidth");
    bench::HostTimer suite_timer;

    const auto profile = workload::dacapoProfile("avrora");
    driver::GcLab lab(profile);
    lab.run(); // Stats reset per pause: series hold the last pause.

    const auto &sw_series = lab.cpuDram()->bandwidth();
    const auto &hw_series = lab.device().dram()->bandwidth();
    const double bucket_us = double(sw_series.bucketWidth()) / 1000.0;

    auto print_series = [bucket_us](const char *name,
                                    const stats::TimeSeries &series) {
        std::printf("\n  %s (GB/s per %.0f us bucket):\n", name,
                    bucket_us);
        // The series is indexed by absolute simulated time; trim the
        // leading/trailing idle so the pause itself is displayed.
        const auto &buckets = series.buckets();
        std::size_t first = 0, last = buckets.size();
        while (first < buckets.size() && buckets[first] == 0) {
            ++first;
        }
        while (last > first && buckets[last - 1] == 0) {
            --last;
        }
        double peak = 0.0, total_bytes = 0.0;
        for (std::size_t i = first; i < last; ++i) {
            const double gbps =
                double(buckets[i]) / double(series.bucketWidth());
            peak = std::max(peak, gbps);
            total_bytes += double(buckets[i]);
            if (i - first < 40) { // First 40 buckets of the pause.
                std::printf("  %8.1f us %8.3f GB/s |%s\n",
                            double(i - first) * bucket_us, gbps,
                            std::string(unsigned(gbps * 12), '#')
                                .c_str());
            }
        }
        const double span =
            double(last - first) * double(series.bucketWidth());
        std::printf("  ... %zu active buckets; avg %.3f GB/s, peak "
                    "%.3f GB/s\n",
                    last - first, span > 0 ? total_bytes / span : 0.0,
                    peak);
    };

    print_series("Rocket CPU", sw_series);
    print_series("GC Unit", hw_series);

    const auto &last = lab.results().back();
    std::printf("\n  pause durations: CPU %.3f ms, unit %.3f ms\n",
                bench::msFromCycles(
                    double(last.swMarkCycles + last.swSweepCycles)),
                bench::msFromCycles(
                    double(last.hwMarkCycles + last.hwSweepCycles)));

    record.metric("hw_mark_cycles", std::uint64_t(last.hwMarkCycles));
    record.metric("hw_sweep_cycles", std::uint64_t(last.hwSweepCycles));
    record.metric("hw_dram_bytes", last.hw.dramBytes);
    record.addAttribution(*lab.device().profiler());

    // Bandwidth sweep: cap the unit's bus (1 B/cycle = 1 GB/s at the
    // 1 GHz clock) and watch the attribution follow the bottleneck.
    std::printf("\n  bandwidth sweep (mark-phase top stall cause):\n");
    std::printf("  %-12s %12s %20s\n", "cap (GB/s)", "mark",
                "top stall cause");
    bool low_end_is_dram = false;
    double lowest_cap = 0.0;
    for (const double cap : {0.0, 4.0, 1.0, 0.25}) {
        driver::LabConfig sweep_config;
        sweep_config.runSw = false;
        sweep_config.hwgc.bus.throttleBytesPerCycle = cap;
        driver::GcLab sweep_lab(profile, sweep_config);
        sweep_lab.run(2);
        const telemetry::CycleProfiler &prof =
            *sweep_lab.device().profiler();
        const CycleClass top = prof.topStallClass("mark");
        if (cap == 0.0) {
            std::printf("  %-12s", "unlimited");
        } else {
            std::printf("  %-12.2f", cap);
        }
        std::printf(" %9.3f ms %20s\n",
                    bench::msFromCycles(sweep_lab.avgHwMarkCycles()),
                    cycleClassName(top));
        char key[48];
        std::snprintf(key, sizeof key, "sweep.cap_%g.mark_cycles", cap);
        std::uint64_t mark_total = 0;
        for (const auto &pause : sweep_lab.results()) {
            mark_total += pause.hwMarkCycles;
        }
        record.metric(key, mark_total);
        if (cap != 0.0 && (lowest_cap == 0.0 || cap < lowest_cap)) {
            lowest_cap = cap;
            low_end_is_dram = top == CycleClass::StallDram;
        }
    }
    if (!low_end_is_dram) {
        std::fprintf(stderr,
                     "FAIL: at the %.2f GB/s cap the top mark-phase "
                     "stall cause is not DRAM bandwidth\n", lowest_cap);
        return 1;
    }
    std::printf("  (low-bandwidth end correctly attributes the mark "
                "phase to DRAM-bandwidth stalls)\n");

    record.write(suite_timer.seconds());

    session.meta().kernel = kernelModeName(lab.device().system().mode());
    session.meta().config = "dacapo:avrora";
    session.meta().simCycles = lab.device().system().now();
    session.finish(); // Export while the lab is still alive.
    return 0;
}
