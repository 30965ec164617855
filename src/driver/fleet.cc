/**
 * @file
 * Fleet harness implementation (see fleet.h and DESIGN.md §12).
 */

#include "fleet.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "workload/quantile.h"

namespace hwgc::driver
{

namespace
{

/** Cycles for a millisecond budget at the 1 GHz core clock. */
Tick
cyclesFromMs(double ms)
{
    return Tick(ms * 1e6);
}

} // namespace

FleetLab::FleetLab(const FleetConfig &config,
                   const std::vector<TenantParams> &tenants)
    : config_(config),
      scheduler_(makeScheduler(config.policy)),
      mem_(config.tenantStride * std::max<std::size_t>(tenants.size(), 1)),
      soc_(mem_, config.hwgc)
{
    fatal_if(config_.devices == 0, "fleet needs at least one device");
    fatal_if(tenants.empty(), "fleet needs at least one tenant");
    fatal_if(config_.quantum == 0, "fleet quantum must be nonzero");
    for (const TenantParams &tenant : tenants) {
        fatal_if(!mem::TokenBucket::validRate(tenant.paceBytesPerCycle),
                 "tenant '%s': paceBytesPerCycle %g is not a bandwidth "
                 "(want 0 or a finite rate of at least 2^-32 "
                 "bytes/cycle)",
                 tenant.name.c_str(), tenant.paceBytesPerCycle);
    }
    // Compressed references pack VA>>3 into 32 bits (§V-C): every
    // tenant heap must sit below 32 GiB of shared address space.
    fatal_if(config_.hwgc.compressRefs &&
                 config_.tenantStride * tenants.size() > (1ULL << 35),
             "compressed refs cap the fleet address space at 32 GiB "
             "(%zu tenants x %llu stride exceeds it)",
             tenants.size(),
             (unsigned long long)config_.tenantStride);

    // Tenant heaps: disjoint addrBase strides of one shared PhysMem,
    // so N runtimes coexist behind one DRAM backend.
    tenants_.resize(tenants.size());
    for (std::size_t t = 0; t < tenants.size(); ++t) {
        Tenant &ten = tenants_[t];
        ten.params = tenants[t];
        runtime::HeapParams hp = config_.heap;
        hp.addrBase = Addr(config_.tenantStride * t);
        ten.heap = std::make_unique<runtime::Heap>(mem_, hp);
        ten.builder = std::make_unique<workload::GraphBuilder>(
            *ten.heap, ten.params.graph);
        ten.builder->build();
        ten.rng = Rng(ten.params.seed);
        // Stagger the first triggers so the fleet does not start in
        // lockstep.
        ten.nextTriggerAt = Tick(std::max(
            1.0, double(ten.params.gcPeriodCycles) *
                     (0.25 + 0.75 * ten.rng.uniform())));
    }

    // Per-tenant pacing: all of device d's bus clients are charged to
    // budget group d; dispatch programs the group's rate to the
    // running tenant's budget and completion disables it again.
    mem::Interconnect &bus = soc_.bus();
    devices_.resize(config_.devices);
    for (unsigned d = 0; d < config_.devices; ++d) {
        Device &dev = devices_[d];
        const unsigned first_client = bus.numClients();
        dev.device = std::make_unique<core::HwgcDevice>(
            soc_, tenants_[0].heap->pageTable());
        for (unsigned c = first_client; c < bus.numClients(); ++c) {
            bus.setClientGroup(c, d);
        }
    }
    soc_.seal([this](checkpoint::Archive &ar) { serialize(ar); });

    stats_.resize(tenants_.size());
    for (std::size_t t = 0; t < tenants_.size(); ++t) {
        stats_[t].name = tenants_[t].params.name;
    }
}

bool
FleetLab::done() const
{
    for (const Tenant &t : tenants_) {
        if (t.gcsDone < config_.gcsPerTenant) {
            return false;
        }
    }
    return true;
}

std::uint64_t
FleetLab::totalGcs() const
{
    std::uint64_t sum = 0;
    for (const Tenant &t : tenants_) {
        sum += t.gcsDone;
    }
    return sum;
}

Tick
FleetLab::drawPeriod(Tenant &t)
{
    return Tick(std::max(1.0, double(t.params.gcPeriodCycles) *
                                  (0.75 + 0.5 * t.rng.uniform())));
}

bool
FleetLab::anyPhaseInFlight() const
{
    for (const Device &dev : devices_) {
        if (dev.phase != 0) {
            return true;
        }
    }
    return false;
}

Tick
FleetLab::nextTriggerTime() const
{
    Tick next = maxTick;
    for (const Tenant &t : tenants_) {
        if (!t.queued && !t.running &&
            t.gcsDone < config_.gcsPerTenant) {
            next = std::min(next, t.nextTriggerAt);
        }
    }
    return next;
}

void
FleetLab::pollCompletions()
{
    const Tick now = this->now();
    for (Device &dev : devices_) {
        if (dev.phase == 1 && dev.device->markDone()) {
            dev.device->finishMark();
            dev.device->startSweep();
            dev.phase = 2;
            dev.sweepStartAt = now;
        }
        if (dev.phase == 2 && dev.device->sweepDone()) {
            completeGc(dev);
        }
    }
}

void
FleetLab::enqueueTriggers()
{
    const Tick now = this->now();
    for (std::size_t t = 0; t < tenants_.size(); ++t) {
        Tenant &ten = tenants_[t];
        if (ten.queued || ten.running ||
            ten.gcsDone >= config_.gcsPerTenant ||
            now < ten.nextTriggerAt) {
            continue;
        }
        GcRequest req;
        req.tenant = unsigned(t);
        req.triggerAt = ten.nextTriggerAt;
        req.deadline =
            ten.nextTriggerAt + cyclesFromMs(ten.params.deadlineMs);
        pending_.push_back(req);
        ten.queued = true;
    }
}

void
FleetLab::dispatchIdle()
{
    for (;;) {
        if (pending_.empty()) {
            return;
        }
        Device *idle = nullptr;
        for (Device &dev : devices_) {
            if (dev.phase == 0) {
                idle = &dev;
                break;
            }
        }
        if (idle == nullptr) {
            return;
        }
        const std::size_t pick =
            scheduler_->pick(pending_, now());
        panic_if(pick >= pending_.size(),
                 "scheduler picked out of range");
        const GcRequest req = pending_[pick];
        pending_.erase(pending_.begin() + std::ptrdiff_t(pick));
        tenants_[req.tenant].queued = false;
        dispatch(*idle, req);
    }
}

void
FleetLab::dispatch(Device &dev, const GcRequest &req)
{
    const Tick now = this->now();
    Tenant &ten = tenants_[req.tenant];
    ten.running = true;

    // The runtime half of the pause: clear marks, publish roots, then
    // program the device at this tenant's heap — the §VII context
    // switch (resetPhaseState flushes unit TLBs/caches/filters).
    ten.heap->clearAllMarks();
    ten.heap->publishRoots();
    dev.device->resetPhaseState();
    dev.device->configure(*ten.heap);

    const unsigned d = unsigned(&dev - devices_.data());
    soc_.bus().setGroupThrottle(d, ten.params.paceBytesPerCycle);

    dev.device->startMark();
    dev.tenant = req.tenant;
    dev.phase = 1;
    dev.triggerAt = req.triggerAt;
    dev.dispatchAt = now;
    dev.sweepStartAt = 0;
    stats_[req.tenant].queueCycles +=
        now >= req.triggerAt ? now - req.triggerAt : 0;
}

void
FleetLab::completeGc(Device &dev)
{
    const Tick now = this->now();
    Tenant &ten = tenants_[dev.tenant];
    dev.device->finishSweep();

    const unsigned d = unsigned(&dev - devices_.data());
    soc_.bus().setGroupThrottle(d, 0.0);

    // The mutator resumes from the collected heap and churns it.
    ten.heap->onAfterSweep();
    ten.builder->mutate(ten.params.churnPerGC);
    ten.gcsDone += 1;
    ten.running = false;
    ten.nextTriggerAt = now + drawPeriod(ten);

    // Stop-the-world accounting: a synchronous pause spans from the
    // trigger (the allocating thread stalls on the full heap, queueing
    // delay included) to completion; with concurrent mark only the
    // sweep handoff stops the world.
    const Tick stw_start = scheduler_->concurrentMark()
        ? dev.sweepStartAt
        : dev.triggerAt;
    ten.pauseCycles.emplace_back(stw_start, now);
    TenantStats &s = stats_[dev.tenant];
    s.gcs = ten.gcsDone;
    s.stwCycles += now - stw_start;

    dev.tenant = noTenant;
    dev.phase = 0;
}

void
FleetLab::runUntilCycle(Tick stop_at)
{
    // Decision points must be independent of where earlier slices
    // stopped, or a split run diverges from an uninterrupted one. The
    // quantum grid is therefore anchored at absolute cycle 0, and a
    // requested stop cycle is rounded up onto that grid so resuming
    // never introduces an off-grid decision point.
    if (stop_at < maxTick - config_.quantum) {
        stop_at = (stop_at + config_.quantum - 1) / config_.quantum *
            config_.quantum;
    }
    unsigned stalls = 0;
    while (!done() && now() < stop_at) {
        pollCompletions();
        enqueueTriggers();
        dispatchIdle();
        if (done()) {
            return;
        }

        if (!anyPhaseInFlight()) {
            // Nothing in flight: jump the shared clock straight to
            // the next trigger (or the stop boundary).
            panic_if(!pending_.empty(),
                     "fleet idle with pending requests");
            const Tick next = nextTriggerTime();
            panic_if(next == maxTick,
                     "fleet idle with no future trigger");
            const Tick target = std::min(next, stop_at);
            if (target > now()) {
                system().run(target - now());
            }
            stalls = 0;
            continue;
        }

        const Tick before = now();
        const Tick boundary =
            (now() / config_.quantum + 1) * config_.quantum;
        const Tick target = std::min(boundary, stop_at);
        const System::StopReason reason =
            system().runUntilIdleStop(target);
        panic_if(reason == System::StopReason::Budget,
                 "fleet wedged: cycle budget elapsed with phases in "
                 "flight");
        if (reason == System::StopReason::Idle &&
            now() == before) {
            // The system was already idle at this boundary. One such
            // pass is legal — the phase drained exactly at the
            // quantum edge and the next pollCompletions() retires it
            // (a mark->sweep handoff makes the system busy again).
            // Repeats mean a phase that will never report done.
            panic_if(++stalls > 2,
                     "fleet wedged: system idle with a phase in "
                     "flight that never completes");
        } else {
            stalls = 0;
        }
    }
}

void
FleetLab::run()
{
    // The SoC writes the images; the fleet picks the quantum boundary
    // of a due one and its own finish as the settled point.
    soc_.resume();
    runUntilCycle(soc_.checkpointDue());
    if (!done()) {
        soc_.writeDueCheckpoint();
        runUntilCycle(maxTick);
    }
    soc_.writeSettledCheckpoint();
}

const std::vector<TenantStats> &
FleetLab::measure()
{
    const double horizon_ms = double(now()) / 1e6;
    for (std::size_t t = 0; t < tenants_.size(); ++t) {
        const Tenant &ten = tenants_[t];
        TenantStats &s = stats_[t];
        s.pausesMs.clear();
        s.pausesMs.reserve(ten.pauseCycles.size());
        for (const auto &w : ten.pauseCycles) {
            s.pausesMs.push_back(
                {double(w.first) / 1e6, double(w.second) / 1e6});
        }
        s.latency = workload::runLatencyTimeline(ten.params.latency,
                                                 s.pausesMs, horizon_ms);
        std::vector<double> sorted;
        sorted.reserve(s.latency.samples.size());
        s.sloViolations = 0;
        for (const auto &sample : s.latency.samples) {
            sorted.push_back(sample.latencyMs);
            if (sample.latencyMs > ten.params.sloMs) {
                s.sloViolations += 1;
            }
        }
        std::sort(sorted.begin(), sorted.end());
        s.p50Ms = workload::quantileSorted(sorted, 0.50);
        s.p99Ms = workload::quantileSorted(sorted, 0.99);
        s.p999Ms = workload::quantileSorted(sorted, 0.999);
        s.maxMs = sorted.back();
    }
    return stats_;
}

std::string
FleetLab::configSignature() const
{
    std::ostringstream os;
    os.precision(17);
    os << "fleet{devices=" << config_.devices
       << ",tenants=" << tenants_.size()
       << ",policy=" << gcPolicyName(config_.policy)
       << ",quantum=" << config_.quantum
       << ",gcs=" << config_.gcsPerTenant
       << ",stride=" << config_.tenantStride;
    for (const Tenant &t : tenants_) {
        os << ",t{" << t.params.name << ":" << t.params.seed << ":"
           << t.params.gcPeriodCycles << ":" << t.params.deadlineMs
           << ":" << t.params.paceBytesPerCycle << ":"
           << t.params.churnPerGC << "}";
    }
    os << "}";
    return os.str();
}

void
FleetLab::serialize(checkpoint::Archive &ar)
{
    std::string sig = configSignature();
    ar.chunk("fleetcfg", sig);
    if (ar.loading()) {
        fatal_if(sig != configSignature(),
                 "fleet checkpoint '%s' was written by a different "
                 "configuration\n  file: %s\n  this: %s",
                 ar.origin().c_str(), sig.c_str(),
                 configSignature().c_str());
    }

    ar.beginChunk("driver");
    ar(pending_);
    for (std::size_t t = 0; t < tenants_.size(); ++t) {
        Tenant &ten = tenants_[t];
        ar(ten.rng, ten.nextTriggerAt, ten.gcsDone, ten.queued,
           ten.pauseCycles, stats_[t].stwCycles, stats_[t].queueCycles);
        if (ar.loading()) {
            ten.running = false;
            stats_[t].gcs = ten.gcsDone;
        }
    }
    for (Device &dev : devices_) {
        ar(dev.tenant, dev.phase, dev.triggerAt, dev.dispatchAt,
           dev.sweepStartAt);
    }
    ar.endChunk();

    for (std::size_t t = 0; t < tenants_.size(); ++t) {
        ar.chunk("heap" + std::to_string(t), *tenants_[t].heap);
        ar.chunk("builder" + std::to_string(t), *tenants_[t].builder);
    }

    if (ar.loading()) {
        // Retarget every serving device at its tenant's heap *before*
        // restoring component state: the PTW page-table pointer and
        // the mark queue's spill region are configure()-time wiring,
        // not serialized state, and both retarget calls insist on
        // empty queues (true on a freshly constructed fleet, not after
        // the SoC chunks load a mid-phase image). The registers
        // configure() programs here are then overwritten by the saved
        // ones in the SoC part.
        for (Device &dev : devices_) {
            if (dev.tenant != noTenant) {
                dev.device->configure(*tenants_[dev.tenant].heap);
                tenants_[dev.tenant].running = true;
            }
        }
    }
}

} // namespace hwgc::driver
