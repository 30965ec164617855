/**
 * @file
 * The execution-driven in-order core cost model (the "Rocket CPU"
 * baseline of every figure).
 *
 * The software collector performs its real, functional work against
 * simulated memory and charges time through this model: one cycle per
 * issued instruction (single-issue in-order), loads/stores through an
 * L1D + shared L2 hierarchy (16 KiB / 256 KiB, Table I), address
 * translation through a 32-entry TLB with page-table walks charged
 * through the L2, and a branch predictor whose mispredicts cost a
 * pipeline redirect.
 *
 * Two properties make this a fair model of the paper's baseline:
 *  - an in-order core blocks on load use almost immediately, so
 *    memory-level parallelism is ~1 (the paper: the CPU "is limited
 *    by the size of the load-store queue and instruction window",
 *    and BOOM beat Rocket by only ~12% on heap traversals);
 *  - all cost constants live here, fixed across every experiment.
 */

#ifndef HWGC_CPU_CORE_MODEL_H
#define HWGC_CPU_CORE_MODEL_H

#include <unordered_map>

#include "mem/atomic_cache.h"
#include "mem/page_table.h"
#include "mem/phys_mem.h"
#include "mem/tlb.h"
#include "sim/stats.h"

namespace hwgc::cpu
{

/** Core cost-model configuration (Table I values). */
struct CoreParams
{
    mem::AtomicCacheParams l1d{16 * 1024, 4, 2};
    mem::AtomicCacheParams l2{256 * 1024, 8, 12};
    unsigned dtlbEntries = 32;
    Tick branchMispredictPenalty = 3;

    /**
     * Stores retire through a store buffer without stalling the
     * pipeline (their miss traffic still reaches the caches/DRAM);
     * loads block on use. This is how Rocket behaves and is what
     * keeps the CPU baseline honest.
     */
    bool nonBlockingStores = true;
};

/** The in-order core model: functional access + cycle charging. */
class CoreModel
{
  public:
    CoreModel(std::string name, const CoreParams &params,
              mem::PhysMem &mem, const mem::PageTable &page_table,
              mem::MemDevice &memory);

    /** @name Charged functional accesses (virtual addresses) @{ */
    Word load(Addr va);
    void store(Addr va, Word value);
    /** @} */

    /** Charges @p n single-cycle (ALU/compare/predicted-branch) ops. */
    void chargeOps(unsigned n) { cycles_ += n; instrs_ += n; }

    /**
     * Resolves a conditional branch at call-site @p site with actual
     * outcome @p taken through a per-site 2-bit predictor, charging
     * the redirect penalty on mispredicts. Deterministic.
     */
    void branch(unsigned site, bool taken);

    /** @name Time accounting @{ */
    Tick cycles() const { return cycles_; }
    void resetCycles() { cycles_ = 0; }
    /** @} */

    /** Drops cache/TLB/predictor state (cold start between phases). */
    void flushMicroarchState();

    /** Resets the core's statistics and those of its caches and TLB
     *  (child groups "l1d", "l2" and "dtlb"). */
    void resetStats() { stats_.reset(); }

    /** @name Statistics @{ */
    std::uint64_t instructions() const { return instrs_.value(); }
    std::uint64_t branchMispredicts() const { return mispredicts_.value(); }
    const mem::AtomicCache &l1d() const { return l1d_; }
    const mem::AtomicCache &l2() const { return l2_; }
    const mem::TlbArray &dtlb() const { return dtlb_; }
    const stats::Group &stats() const { return stats_; }
    /** @} */

  private:
    /** Translates @p va, charging TLB hit or a walk through the L2. */
    Addr translate(Addr va);

    CoreParams params_;
    mem::PhysMem &mem_;
    const mem::PageTable &pageTable_;
    /** Before the caches and the TLB, whose groups nest in it. */
    stats::Group stats_;
    mem::AtomicCache l2_;
    mem::AtomicCache l1d_;
    mem::TlbArray dtlb_;

    Tick cycles_ = 0;
    std::unordered_map<unsigned, std::uint8_t> predictor_;

    stats::Scalar instrs_{stats_, "instructions"};
    stats::Scalar mispredicts_{stats_, "branchMispredicts"};
    stats::Scalar loads_{stats_, "loads"};
    stats::Scalar stores_{stats_, "stores"};
};

} // namespace hwgc::cpu

#endif // HWGC_CPU_CORE_MODEL_H
