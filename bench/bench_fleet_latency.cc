/**
 * @file
 * Fleet mode — multi-device, multi-tenant tail-latency service.
 *
 * The paper sizes one accelerator instance per process and sketches
 * the datacenter story in §VII (context switching, bandwidth
 * throttling, concurrent collection). This bench composes them: a
 * small device array shares one interconnect + DRAM, many tenants
 * with DaCapo-shaped heaps trigger collections stochastically, and a
 * pluggable scheduler decides who collects first when demand exceeds
 * devices. Each tenant's request process (hundreds of thousands of
 * queries, coordinated-omission corrected) is replayed over its
 * measured pause timeline; the figure of merit is per-tenant
 * p50/p99/p99.9 and GC-induced SLO violations per policy.
 *
 *   --devices=N     device array size            (default 2)
 *   --tenants=N     tenant count                 (default 8)
 *   --gc-policy=P   fifo|deadline|overlap|all    (default all)
 *   --kernel=K      dense|event                  (default event)
 *   --gcs=N         collections per tenant       (default 5)
 *   --queries=N     requests per tenant          (default 250000)
 */

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "driver/fleet.h"
#include "workload/dacapo.h"

namespace
{

using namespace hwgc;

bool
argValue(const char *arg, const char *prefix, std::string &out)
{
    const std::size_t n = std::strlen(prefix);
    if (std::strncmp(arg, prefix, n) != 0) {
        return false;
    }
    out.assign(arg + n);
    return true;
}

std::uint64_t
parseU64(const std::string &text, const char *flag)
{
    char *end = nullptr;
    const std::uint64_t v = std::strtoull(text.c_str(), &end, 10);
    fatal_if(end == nullptr || *end != '\0' || text.empty(),
             "%s: expected a number, got '%s'", flag, text.c_str());
    return v;
}

/**
 * The tenant mix: even slots are latency-sensitive services (small
 * heaps, frequent GCs, tight deadline and SLO), odd slots are batch
 * tenants (the two heaviest DaCapo shapes, infrequent long GCs,
 * loose deadline). The interesting regime is FIFO head-of-line
 * blocking: a latency tenant triggering just after a couple of batch
 * collections waits out multi-ms marks it did not cause.
 */
std::vector<driver::TenantParams>
tenantMix(unsigned tenants, std::uint64_t queries)
{
    const auto latency_shape = workload::dacapoProfile("avrora");
    const workload::BenchmarkProfile batch_shapes[2] = {
        workload::dacapoProfile("pmd"),
        workload::dacapoProfile("xalan"),
    };

    std::vector<driver::TenantParams> mix;
    for (unsigned t = 0; t < tenants; ++t) {
        driver::TenantParams p;
        const bool is_latency = (t % 2) == 0;
        const auto &shape =
            is_latency ? latency_shape : batch_shapes[(t / 2) % 2];
        p.graph = shape.graph;
        p.graph.seed = shape.graph.seed + 7919 * t;
        p.churnPerGC = shape.churnPerGC;
        p.seed = 100 + t;
        p.latency.totalQueries = unsigned(queries);
        // Calibration: one avrora HW collection costs ~3.2M cycles
        // (3.2 ms), pmd ~19M, xalan ~27M (bench/baseline/
        // BENCH_fig15_mark_sweep.json). Periods are set so the fleet
        // runs slightly oversubscribed — ~2.2 device-demand on the
        // default 2 devices — which is exactly the regime where the
        // dispatch policy decides whose tail grows.
        if (is_latency) {
            p.name = "svc" + std::to_string(t);
            p.gcPeriodCycles = 12'000'000; // ~12 ms between triggers.
            p.deadlineMs = 5.0;
            p.sloMs = 10.0; // An unqueued 3.2 ms pause fits; a pause
                            // stuck behind batch marks does not.
            // 50k QPS front-end at ~37% utilization: the baseline
            // latency is tens of microseconds, so anything over the
            // SLO is GC-induced.
            p.latency.issueIntervalMs = 0.02;
            p.latency.serviceMeanMs = 0.005;
            p.latency.serviceJitterMs = 0.005;
        } else {
            p.name = "batch" + std::to_string(t);
            p.gcPeriodCycles = 30'000'000;
            p.deadlineMs = 60.0;
            p.sloMs = 200.0;
            // Throughput-oriented: slower issue rate, longer requests.
            p.latency.issueIntervalMs = 0.2;
            p.latency.serviceMeanMs = 0.1;
            p.latency.serviceJitterMs = 0.1;
            p.latency.totalQueries = unsigned(queries / 10);
        }
        p.latency.seed = 7 + t;
        // Small --queries= runs (CI smokes) would otherwise leave the
        // default warm-up swallowing a batch tenant's whole sample.
        if (p.latency.warmupQueries >= p.latency.totalQueries) {
            p.latency.warmupQueries = p.latency.totalQueries / 10;
        }
        mix.push_back(p);
    }
    return mix;
}

struct PolicyOutcome
{
    driver::GcPolicy policy = driver::GcPolicy::Fifo;
    Tick simCycles = 0;
    std::uint64_t stwCycles = 0;
    std::uint64_t queueCycles = 0;
    std::uint64_t svcViolations = 0;
    std::uint64_t batchViolations = 0;
    double svcWorstP999 = 0.0;
};

} // namespace

int
main(int argc, char **argv)
{
    telemetry::Session session(argc, argv);
    bench::banner(
        "Fleet: multi-device multi-tenant tail latency (Sec VII)",
        "deadline-aware GC scheduling trims the p99.9 tail FIFO "
        "leaves behind");

    unsigned devices = 2, tenants = 8, gcs = 5;
    std::uint64_t queries = 250'000;
    // --kernel= is a global telemetry flag (Session parsed it); the
    // fleet's SoC picks it up because the config names no kernel.
    std::string policy_name = "all";
    for (int i = 1; i < argc; ++i) {
        std::string value;
        if (argValue(argv[i], "--gc-policy=", policy_name)) {
            continue;
        }
        if (argValue(argv[i], "--devices=", value)) {
            devices = unsigned(parseU64(value, "--devices"));
        } else if (argValue(argv[i], "--tenants=", value)) {
            tenants = unsigned(parseU64(value, "--tenants"));
        } else if (argValue(argv[i], "--gcs=", value)) {
            gcs = unsigned(parseU64(value, "--gcs"));
        } else if (argValue(argv[i], "--queries=", value)) {
            queries = parseU64(value, "--queries");
        } else {
            fatal("bench_fleet_latency: unknown argument '%s'",
                  argv[i]);
        }
    }

    std::vector<driver::GcPolicy> policies;
    if (policy_name == "all") {
        policies = {driver::GcPolicy::Fifo, driver::GcPolicy::Deadline,
                    driver::GcPolicy::ConcurrentOverlap};
    } else {
        policies = {driver::parseGcPolicy(policy_name)};
    }

    const auto mix = tenantMix(tenants, queries);
    std::printf("  %u device(s), %u tenant(s), %u GCs/tenant, "
                "%llu queries/service tenant\n\n",
                devices, tenants, gcs, (unsigned long long)queries);

    bench::BenchRecord record("fleet_latency");
    bench::HostTimer total_timer;
    std::vector<PolicyOutcome> outcomes;
    double total_sim_cycles = 0.0;
    const char *kernel_name = "";

    for (const driver::GcPolicy policy : policies) {
        driver::FleetConfig config;
        config.devices = devices;
        config.policy = policy;
        config.gcsPerTenant = gcs;

        driver::FleetLab lab(config, mix);
        kernel_name = kernelModeName(lab.system().mode());
        bench::HostTimer timer;
        lab.run();
        const double host_secs = timer.seconds();
        const auto &stats = lab.measure();

        PolicyOutcome out;
        out.policy = policy;
        out.simCycles = lab.now();
        total_sim_cycles += double(lab.now());

        std::printf("  policy %-8s (%llu GCs, %llu cycles, kernel %s)\n",
                    driver::gcPolicyName(policy),
                    (unsigned long long)lab.totalGcs(),
                    (unsigned long long)lab.now(), kernel_name);
        std::printf("  %-8s %4s %9s %9s %9s %9s %9s %6s\n", "tenant",
                    "gcs", "stw(ms)", "p50(ms)", "p99(ms)", "p99.9",
                    "max(ms)", "viol");
        for (std::size_t t = 0; t < stats.size(); ++t) {
            const auto &s = stats[t];
            std::printf(
                "  %-8s %4u %9.3f %9.3f %9.3f %9.3f %9.3f %6u\n",
                s.name.c_str(), s.gcs,
                bench::msFromCycles(double(s.stwCycles)), s.p50Ms,
                s.p99Ms, s.p999Ms, s.maxMs, s.sloViolations);
            out.stwCycles += s.stwCycles;
            out.queueCycles += s.queueCycles;
            const bool is_latency = mix[t].name.rfind("svc", 0) == 0;
            if (is_latency) {
                out.svcViolations += s.sloViolations;
                out.svcWorstP999 = std::max(out.svcWorstP999, s.p999Ms);
            } else {
                out.batchViolations += s.sloViolations;
            }
        }
        std::printf("  service-tenant SLO violations: %llu   "
                    "worst p99.9: %.3f ms\n\n",
                    (unsigned long long)out.svcViolations,
                    out.svcWorstP999);
        outcomes.push_back(out);

        const char *pname = driver::gcPolicyName(policy);
        record.metric(std::string(pname) + ".sim_cycles",
                      out.simCycles);
        record.metric(std::string(pname) + ".stw_cycles",
                      out.stwCycles);
        record.metric(std::string(pname) + ".queue_cycles",
                      out.queueCycles);
        record.metric(std::string(pname) + ".svc_slo_violations",
                      out.svcViolations);
        record.metric(std::string(pname) + ".batch_slo_violations",
                      out.batchViolations);
        bench::printKernelSpeed("fleet_latency", pname, host_secs,
                                double(lab.now()));
    }

    const PolicyOutcome *fifo = nullptr, *deadline = nullptr;
    for (const auto &o : outcomes) {
        if (o.policy == driver::GcPolicy::Fifo) {
            fifo = &o;
        }
        if (o.policy == driver::GcPolicy::Deadline) {
            deadline = &o;
        }
    }
    if (fifo != nullptr && deadline != nullptr) {
        std::printf("  deadline vs fifo: service SLO violations "
                    "%llu -> %llu, worst p99.9 %.3f -> %.3f ms\n",
                    (unsigned long long)fifo->svcViolations,
                    (unsigned long long)deadline->svcViolations,
                    fifo->svcWorstP999, deadline->svcWorstP999);
        if (deadline->svcViolations >= fifo->svcViolations) {
            std::printf("  WARNING: deadline policy did not reduce "
                        "service-tenant violations on this config\n");
        }
    }

    record.write(total_timer.seconds());
    session.meta().kernel = kernel_name;
    session.meta().config = "devices=" + std::to_string(devices) +
                            ",tenants=" + std::to_string(tenants) +
                            ",policy=" + policy_name;
    session.meta().simCycles = std::uint64_t(total_sim_cycles);
    session.meta().hostSeconds = total_timer.seconds();
    return 0;
}
