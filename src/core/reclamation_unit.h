/**
 * @file
 * The reclamation unit (paper Fig 8): a block-list reader that
 * distributes block descriptors across N parallel block sweepers.
 * "As each unit is negligibly small, a large part of the design is
 * the cross-bar that connects them" — here the crossbar is the
 * dispatch loop plus each sweeper's own memory port.
 */

#ifndef HWGC_CORE_RECLAMATION_UNIT_H
#define HWGC_CORE_RECLAMATION_UNIT_H

#include <memory>
#include <vector>

#include "core/block_sweeper.h"

namespace hwgc::core
{

/** The reclamation unit: block reader + sweeper farm. */
class ReclamationUnit : public Clocked, public mem::MemResponder
{
  public:
    /**
     * @param reader_port Port for block-table entry reads.
     * @param sweeper_ports One port per sweeper (same count as
     *        config.numSweepers).
     */
    ReclamationUnit(std::string name, const HwgcConfig &config,
                    mem::MemPort *reader_port,
                    std::vector<mem::MemPort *> sweeper_ports,
                    mem::Ptw &ptw);

    /** Arms a sweep over @p block_count table entries. */
    void start(Addr block_table_va, std::uint64_t block_count);

    /** True once every block has been swept and all writes acked. */
    bool done() const;

    // MemResponder interface (block-table entry reads).
    void onResponse(const mem::MemResponse &resp, Tick now) override;

    // Clocked interface.
    void tick(Tick now) override;
    bool busy() const override { return !done(); }
    Tick nextWakeup(Tick now) const override;
    CycleClass cycleClass(Tick now) const override;
    void serialize(checkpoint::Archive &ar) override;

    /** The sweepers (registered separately with the System). */
    std::vector<std::unique_ptr<BlockSweeper>> &sweepers()
    {
        return sweepers_;
    }

    void reset();

    /** @name Statistics @{ */
    std::uint64_t blocksDispatched() const { return dispatched_.value(); }
    std::uint64_t cellsFreed() const;
    std::uint64_t cellsScanned() const;
    /** @} */

  private:
    HwgcConfig config_;
    mem::MemPort *readerPort_;
    /** Built before readerTranslator_: PTW port ids follow
     *  registration order, and the sweepers' come first. */
    std::vector<std::unique_ptr<BlockSweeper>> sweepers_;
    mem::Translator readerTranslator_;

    Addr tableVa_ = 0;
    std::uint64_t nextBlock_ = 0;
    std::uint64_t blockCount_ = 0;
    bool entryReadPending_ = false;
    bool entryReady_ = false;
    SweepJob pendingJob_;

    stats::Scalar dispatched_{stats_, "blocksDispatched"};
};

} // namespace hwgc::core

#endif // HWGC_CORE_RECLAMATION_UNIT_H
