/**
 * @file
 * Differential fuzz runner implementation.
 */

#include "differ.h"

#include <memory>
#include <sstream>

#include "core/hwgc_device.h"
#include "cpu/core_model.h"
#include "gc/sw_collector.h"
#include "gc/verifier.h"
#include "runtime/object_model.h"
#include "sim/checkpoint.h"

namespace hwgc::fuzz
{

namespace
{

/** Everything one collection produces that must agree somewhere. */
struct CollectDigest
{
    /** Bit-identical across kernels within one configuration. */
    Tick markCycles = 0;
    Tick sweepCycles = 0;
    std::uint64_t objectsMarked = 0; //!< Device counter (may overcount).
    std::uint64_t refsTraced = 0;
    std::uint64_t cellsFreed = 0;

    /** Functional outcome: identical across *every* configuration. */
    std::uint64_t markedCount = 0; //!< Distinct marked objects.
    std::uint64_t markDigest = 0;  //!< gc::markSetDigest.
    std::uint64_t freedObjects = 0;
    std::uint64_t liveAfter = 0;
};

/** Witness digest from the software-collector universe. */
struct SwDigest
{
    std::uint64_t markedCount = 0;
    std::uint64_t markDigest = 0;
    std::uint64_t freedObjects = 0;
    std::uint64_t liveAfter = 0;
};

/** One hardware leg: its own heap image and device — or, when the
 *  config asks for `devices=N` with N > 1, N devices joined to one
 *  shared Soc (FleetLab's assembly), with the schedule's collections
 *  round-robined across the array. Every device retargets the same
 *  heap, so the functional digests must match the single-device legs
 *  exactly. */
class HwUniverse
{
  public:
    HwUniverse(const Schedule &schedule, const core::HwgcConfig &config)
        : heap_(mem_), builder_(heap_, graphParams(schedule))
    {
        builder_.build();
        heap_.clearAllMarks();
        heap_.publishRoots();
        if (config.devices <= 1) {
            device_ = std::make_unique<core::HwgcDevice>(
                mem_, heap_.pageTable(), config);
            return;
        }

        soc_ = std::make_unique<core::Soc>(mem_, config);
        for (unsigned d = 0; d < config.devices; ++d) {
            fleet_.push_back(std::make_unique<core::HwgcDevice>(
                *soc_, heap_.pageTable()));
        }
        soc_->seal();
    }

    void mutate(double churn) { builder_.mutate(churn); }

    /**
     * Runs one full pause, filling @p digest. Returns false with a
     * message when a within-universe oracle (mark set vs closure,
     * swept-heap invariants) fails.
     */
    bool
    collect(bool inject_mark_bug, CollectDigest &digest,
            std::string &error)
    {
        heap_.clearAllMarks();
        heap_.publishRoots();
        core::HwgcDevice &dev = fleet_.empty()
            ? *device_
            : *fleet_[collectIdx_++ % fleet_.size()];
        dev.resetPhaseState();
        dev.resetStats();
        dev.configure(heap_);

        const auto mark = fleet_.empty() ? dev.runMark()
                                         : runFleetPhase(dev, true);
        if (inject_mark_bug) {
            injectMarkBug();
        }
        digest.markCycles = mark.cycles;
        digest.objectsMarked = mark.objectsMarked;
        digest.refsTraced = mark.refsTraced;
        digest.markedCount = heap_.countMarked();
        digest.markDigest = gc::markSetDigest(heap_);

        const auto marks_ok = gc::verifyMarks(heap_);
        if (!marks_ok.ok) {
            error = "hw mark set != reachability closure: " +
                marks_ok.error;
            return false;
        }

        const auto sweep = fleet_.empty() ? dev.runSweep()
                                          : runFleetPhase(dev, false);
        digest.sweepCycles = sweep.cycles;
        digest.cellsFreed = sweep.cellsFreed;

        const auto swept_ok = gc::verifySweptHeap(heap_);
        if (!swept_ok.ok) {
            error = "swept-heap invariant: " + swept_ok.error;
            return false;
        }
        const auto lists_ok = gc::verifyFreeLists(heap_);
        if (!lists_ok.ok) {
            error = "free-list invariant: " + lists_ok.error;
            return false;
        }

        digest.freedObjects = heap_.onAfterSweep();
        digest.liveAfter = heap_.liveObjects();
        return true;
    }

    /** The SoC to crash-checkpoint on divergence, in either shape. */
    core::Soc &soc() { return device_ ? device_->soc() : *soc_; }

  private:
    /**
     * Drives the shared System in fixed quanta until the launched
     * phase reports done (FleetLab's completion rule). Decisions at
     * quantum boundaries keep the fleet legs bit-identical across
     * kernels.
     */
    core::HwPhaseResult
    runFleetPhase(core::HwgcDevice &dev, bool mark)
    {
        System &sys = soc_->system();
        const Tick start = sys.now();
        if (mark) {
            dev.startMark();
        } else {
            dev.startSweep();
        }
        std::uint64_t quanta = 0;
        while (mark ? !dev.markDone() : !dev.sweepDone()) {
            sys.run(256);
            panic_if(++quanta > (1ULL << 24),
                     "fuzz fleet universe wedged: %s phase never "
                     "drained", mark ? "mark" : "sweep");
        }
        core::HwPhaseResult result =
            mark ? dev.finishMark() : dev.finishSweep();
        result.cycles = sys.now() - start;
        return result;
    }

    /** The deliberate bug: lose the last marked object's mark bit. */
    void
    injectMarkBug()
    {
        for (auto it = heap_.objects().rbegin();
             it != heap_.objects().rend(); ++it) {
            const Word hdr = heap_.read(it->ref);
            if (runtime::StatusWord::marked(hdr)) {
                heap_.write(it->ref,
                            hdr & ~runtime::StatusWord::markBit);
                return;
            }
        }
    }

    mem::PhysMem mem_;
    runtime::Heap heap_;
    workload::GraphBuilder builder_;
    std::unique_ptr<core::HwgcDevice> device_; //!< devices <= 1.

    /** Fleet shape (devices > 1): shared SoC + device array. @{ */
    std::unique_ptr<core::Soc> soc_;
    std::vector<std::unique_ptr<core::HwgcDevice>> fleet_;
    std::size_t collectIdx_ = 0; //!< Round-robin dispatch counter.
    /** @} */
};

/** The software-collector witness leg. */
class SwUniverse
{
  public:
    explicit SwUniverse(const Schedule &schedule)
        : heap_(mem_), builder_(heap_, graphParams(schedule)),
          swMem_("cpu.idealmem", {}, mem_),
          core_("rocket", {}, mem_, heap_.pageTable(), swMem_),
          collector_(heap_, core_)
    {
        builder_.build();
        heap_.clearAllMarks();
        heap_.publishRoots();
    }

    void mutate(double churn) { builder_.mutate(churn); }

    bool
    collect(SwDigest &digest, std::string &error)
    {
        heap_.clearAllMarks();
        heap_.publishRoots();
        collector_.mark();
        digest.markedCount = heap_.countMarked();
        digest.markDigest = gc::markSetDigest(heap_);
        const auto marks_ok = gc::verifyMarks(heap_);
        if (!marks_ok.ok) {
            error = "sw mark set != reachability closure: " +
                marks_ok.error;
            return false;
        }
        collector_.sweep();
        digest.freedObjects = heap_.onAfterSweep();
        digest.liveAfter = heap_.liveObjects();
        return true;
    }

  private:
    mem::PhysMem mem_;
    runtime::Heap heap_;
    workload::GraphBuilder builder_;
    mem::IdealMem swMem_;
    cpu::CoreModel core_;
    gc::SwCollector collector_;
};

/** Compares @p got against @p want, naming the first differing field. */
bool
compareKernelDigest(const CollectDigest &want, const CollectDigest &got,
                    std::string &error)
{
    const struct
    {
        const char *name;
        std::uint64_t want, got;
    } fields[] = {
        {"markCycles", want.markCycles, got.markCycles},
        {"sweepCycles", want.sweepCycles, got.sweepCycles},
        {"objectsMarked", want.objectsMarked, got.objectsMarked},
        {"refsTraced", want.refsTraced, got.refsTraced},
        {"cellsFreed", want.cellsFreed, got.cellsFreed},
        {"markedCount", want.markedCount, got.markedCount},
        {"markDigest", want.markDigest, got.markDigest},
        {"freedObjects", want.freedObjects, got.freedObjects},
        {"liveAfter", want.liveAfter, got.liveAfter},
    };
    for (const auto &field : fields) {
        if (field.want != field.got) {
            std::ostringstream os;
            os << "cross-kernel divergence: " << field.name << " "
               << field.got << " != reference kernel's " << field.want;
            error = os.str();
            return false;
        }
    }
    return true;
}

/** Functional-outcome compare across configurations. */
bool
compareFunctional(const CollectDigest &want, const CollectDigest &got,
                  std::string &error)
{
    const struct
    {
        const char *name;
        std::uint64_t want, got;
    } fields[] = {
        {"markedCount", want.markedCount, got.markedCount},
        {"markDigest", want.markDigest, got.markDigest},
        {"freedObjects", want.freedObjects, got.freedObjects},
        {"liveAfter", want.liveAfter, got.liveAfter},
    };
    for (const auto &field : fields) {
        if (field.want != field.got) {
            std::ostringstream os;
            os << "cross-config divergence: " << field.name << " "
               << field.got << " != reference config's " << field.want;
            error = os.str();
            return false;
        }
    }
    return true;
}

} // namespace

std::vector<KernelCase>
kernelMatrix()
{
    return {
        {KernelMode::Dense, "dense"},
        {KernelMode::Event, "event"},
    };
}

bool
kernelCaseFromName(const std::string &name, KernelCase &out)
{
    KernelMode mode = KernelMode::Event;
    if (!kernelModeFromName(name, mode)) {
        return false;
    }
    out = {mode, name};
    return true;
}

FuzzResult
runSchedule(const Schedule &schedule, const FuzzOptions &options)
{
    const std::vector<ConfigPoint> grid =
        options.grid.empty() ? quickGrid() : options.grid;
    const std::vector<KernelCase> kernels =
        options.kernels.empty() ? kernelMatrix() : options.kernels;

    FuzzResult result;
    const std::string seed_tag =
        "seed" + std::to_string(schedule.seed);

    const auto fail = [&](const std::string &config,
                          const std::string &kernel, int op,
                          const std::string &what, core::Soc *soc) {
        result.ok = false;
        result.configName = config;
        result.kernelName = kernel;
        result.failedOp = op;
        result.error = "[" + seed_tag + " config=" + config +
            " kernel=" + kernel + " op=" + std::to_string(op) + "] " +
            what;
        if (!options.writeArtifacts) {
            return result;
        }
        // Divergence artifacts: the schedule, a crash checkpoint of
        // the diverged universe (collision-safe pid-suffixed path),
        // and a replay line that reproduces this exact universe.
        const std::string dir =
            options.artifactDir.empty() ? "." : options.artifactDir;
        result.schedulePath = dir + "/fuzz-" + seed_tag + ".sched";
        saveFile(result.schedulePath, schedule);
        if (soc != nullptr) {
            result.crashPath = checkpoint::crashArtifactBase(
                dir + "/fuzz-" + seed_tag + ".ckpt");
            soc->writeCheckpoint(result.crashPath);
        }
        std::string spec;
        for (const ConfigPoint &point : grid) {
            if (point.name == config) {
                spec = point.spec;
            }
        }
        result.reproLine = options.driverName +
            " --schedule=" + result.schedulePath +
            " --config=" + (spec.empty() ? std::string("default")
                                         : spec) +
            " --kernel=" + kernel +
            (options.injectMarkBug ? " --inject-mark-bug" : "");
        return result;
    };

    // The software witness replays the schedule once; its per-collect
    // digests are the reference every hardware leg must match.
    std::vector<SwDigest> sw_ref;
    {
        SwUniverse sw(schedule);
        for (std::size_t i = 0; i < schedule.ops.size(); ++i) {
            const Op &op = schedule.ops[i];
            if (op.kind == Op::Kind::Mutate) {
                sw.mutate(double(op.churnPermille) / 1000.0);
                continue;
            }
            SwDigest digest;
            std::string error;
            if (!sw.collect(digest, error)) {
                return fail("-", "sw", int(i), error, nullptr);
            }
            sw_ref.push_back(digest);
        }
    }

    // Functional reference across configurations (filled by the first
    // config's first kernel leg).
    std::vector<CollectDigest> func_ref;

    for (std::size_t ci = 0; ci < grid.size(); ++ci) {
        const ConfigPoint &point = grid[ci];
        core::HwgcConfig base;
        std::string spec_err;
        if (!applyConfigSpec(base, point.spec, &spec_err)) {
            return fail(point.name, "-", -1,
                        "bad config spec: " + spec_err, nullptr);
        }

        // Cycle/stat reference across kernels within this config.
        std::vector<CollectDigest> kernel_ref;

        for (std::size_t ki = 0; ki < kernels.size(); ++ki) {
            const KernelCase &kc = kernels[ki];
            core::HwgcConfig config = base;
            config.kernel = kc.mode;
            const bool inject_here = options.injectMarkBug &&
                ci + 1 == grid.size() && ki + 1 == kernels.size();

            HwUniverse universe(schedule, config);
            std::size_t collect_idx = 0;
            for (std::size_t i = 0; i < schedule.ops.size(); ++i) {
                const Op &op = schedule.ops[i];
                if (op.kind == Op::Kind::Mutate) {
                    universe.mutate(double(op.churnPermille) / 1000.0);
                    continue;
                }
                CollectDigest digest;
                std::string error;
                const bool inject = inject_here && collect_idx == 0;
                if (!universe.collect(inject, digest, error)) {
                    return fail(point.name, kc.name, int(i), error,
                                &universe.soc());
                }

                // (b) HW vs the software-collector witness.
                const SwDigest &sw = sw_ref[collect_idx];
                if (digest.markedCount != sw.markedCount ||
                    digest.markDigest != sw.markDigest ||
                    digest.freedObjects != sw.freedObjects ||
                    digest.liveAfter != sw.liveAfter) {
                    std::ostringstream os;
                    os << "hw/sw witness divergence: marked "
                       << digest.markedCount << "/sw " << sw.markedCount
                       << ", freed " << digest.freedObjects << "/sw "
                       << sw.freedObjects << ", live " << digest.liveAfter
                       << "/sw " << sw.liveAfter;
                    return fail(point.name, kc.name, int(i), os.str(),
                                &universe.soc());
                }

                // (a) bit-identical across kernels within the config...
                if (ki == 0) {
                    kernel_ref.push_back(digest);
                } else if (!compareKernelDigest(kernel_ref[collect_idx],
                                                digest, error)) {
                    return fail(point.name, kc.name, int(i), error,
                                &universe.soc());
                }

                // ...and functionally identical across configs.
                if (ci == 0 && ki == 0) {
                    func_ref.push_back(digest);
                } else if (!compareFunctional(func_ref[collect_idx],
                                              digest, error)) {
                    return fail(point.name, kc.name, int(i), error,
                                &universe.soc());
                }

                ++collect_idx;
                ++result.collectsRun;
            }
        }
    }
    return result;
}

} // namespace hwgc::fuzz
