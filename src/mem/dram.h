/**
 * @file
 * A bank-aware DRAM controller timing model.
 *
 * Models the memory system of paper Table I: single-rank DDR3-2000
 * with 14-14-14-47 ns timings, an FR-FCFS memory access scheduler with
 * 16 reads / 8 writes in flight, and an open-page row-buffer policy.
 * A FIFO scheduler and a closed-page policy are selectable for the
 * §VI-A ablation ("performance was significantly improved changing
 * from FIFO MAS to FR-FCFS and increasing outstanding reads 8→16").
 *
 * The model is deliberately at the level of FireSim's DDR3 timing
 * model: per-bank row-buffer state, a shared data bus with burst
 * occupancy, and first-ready scheduling — not a full command-level
 * DDR state machine.
 */

#ifndef HWGC_MEM_DRAM_H
#define HWGC_MEM_DRAM_H

#include <deque>
#include <queue>
#include <vector>

#include "mem/mem_device.h"
#include "mem/phys_mem.h"
#include "sim/stats.h"

namespace hwgc::mem
{

/** DRAM configuration (defaults follow paper Table I). */
struct DramParams
{
    enum class Scheduler { FrFcfs, Fifo };
    enum class PagePolicy { Open, Closed };

    unsigned banks = 8;
    std::uint64_t rowBytes = 2048;

    Tick tCAS = 14;   //!< Column access strobe latency (ns = cycles).
    Tick tRCD = 14;   //!< Row-to-column delay.
    Tick tRP = 14;    //!< Row precharge.
    Tick tRAS = 47;   //!< Row active time.

    unsigned maxReads = 16;  //!< Max reads in flight (Table I).
    unsigned maxWrites = 8;  //!< Max writes in flight (Table I).

    /** Peak data-bus bandwidth in bytes per core cycle (DDR3-2000). */
    double busBytesPerCycle = 16.0;

    /** Controller frontend/backend pipeline latency. */
    Tick frontendLatency = 10;

    Scheduler scheduler = Scheduler::FrFcfs;
    PagePolicy pagePolicy = PagePolicy::Open;

    /** Bucket width of the bandwidth time series (Fig 16). */
    Tick bandwidthBucket = 10000;
};

/** The DRAM controller + device timing model. */
class Dram : public MemDevice
{
  public:
    Dram(std::string name, const DramParams &params, PhysMem &mem);

    // MemDevice interface.
    bool canAccept(const MemRequest &req) const override;
    void sendRequest(const MemRequest &req, Tick now) override;
    Tick accessAtomic(const MemRequest &req, Tick now,
                      std::array<Word, maxReqWords> &rdata) override;
    void resetTimingState() override { resetBankState(); }

    // Clocked interface.
    void tick(Tick now) override;
    bool busy() const override;
    Tick nextWakeup(Tick now) const override;
    CycleClass cycleClass(Tick now) const override;
    void serialize(checkpoint::Archive &ar) override;

    /** Resets bank/row-buffer state (between experiment phases). */
    void resetBankState();

    const DramParams &params() const { return params_; }

    /** @name Statistics @{ */
    const stats::Scalar &numReads() const { return numReads_; }
    const stats::Scalar &numWrites() const { return numWrites_; }
    const stats::Scalar &bytesRead() const { return bytesRead_; }
    const stats::Scalar &bytesWritten() const { return bytesWritten_; }
    const stats::Scalar &rowHits() const { return rowHits_; }
    const stats::Scalar &rowMisses() const { return rowMisses_; }
    const stats::Scalar &numActivates() const { return numActivates_; }
    const stats::TimeSeries &bandwidth() const { return bandwidth_; }
    const stats::Histogram &latency() const { return latency_; }
    /** @} */

  private:
    struct Bank
    {
        void
        serialize(checkpoint::Archive &ar)
        {
            ar(rowOpen, openRow, readyAt, activatedAt);
        }

        bool rowOpen = false;
        std::uint64_t openRow = 0;
        Tick readyAt = 0;       //!< Earliest next column command.
        Tick activatedAt = 0;   //!< For tRAS accounting.
    };

    struct Pending
    {
        void serialize(checkpoint::Archive &ar) { ar(req, arrived, issued); }

        MemRequest req;
        Tick arrived = 0;       //!< When eligible for scheduling.
        bool issued = false;
    };

    struct Completion
    {
        Tick at = 0;
        MemRequest req;
        bool operator>(const Completion &o) const { return at > o.at; }
        void serialize(checkpoint::Archive &ar) { ar(at, req); }
    };

    unsigned bankIndex(Addr addr) const;
    std::uint64_t rowIndex(Addr addr) const;

    /**
     * Computes the service completion time of an access starting no
     * earlier than @p start, updating bank and bus state.
     */
    Tick serviceAccess(const MemRequest &req, Tick start);

    /** Picks the next queue index to issue, or -1 if none is ready. */
    int pickNext(Tick now) const;

    void recordTraffic(const MemRequest &req, Tick when);

    DramParams params_;
    PhysMem &mem_;

    std::vector<Bank> banks_;
    Tick busFreeAt_ = 0;

    std::deque<Pending> queue_;
    unsigned readsInFlight_ = 0;
    unsigned writesInFlight_ = 0;
    std::priority_queue<Completion, std::vector<Completion>,
                        std::greater<Completion>> completions_;

    stats::Scalar numReads_{stats_, "numReads"};
    stats::Scalar numWrites_{stats_, "numWrites"};
    stats::Scalar bytesRead_{stats_, "bytesRead"};
    stats::Scalar bytesWritten_{stats_, "bytesWritten"};
    stats::Scalar rowHits_{stats_, "rowHits"};
    stats::Scalar rowMisses_{stats_, "rowMisses"};
    stats::Scalar numActivates_{stats_, "numActivates"};
    stats::TimeSeries bandwidth_;
    stats::Histogram latency_{stats_, "accessLatency"};
};

} // namespace hwgc::mem

#endif // HWGC_MEM_DRAM_H
