/**
 * @file
 * Reclamation unit implementation.
 */

#include "reclamation_unit.h"

#include "runtime/block_table.h"

namespace hwgc::core
{

using runtime::BlockTableEntry;

ReclamationUnit::ReclamationUnit(std::string name,
                                 const HwgcConfig &config,
                                 mem::MemPort *reader_port,
                                 std::vector<mem::MemPort *> sweeper_ports,
                                 mem::Ptw &ptw)
    : Clocked(std::move(name)), config_(config),
      readerPort_(reader_port), sweepers_([&] {
          std::vector<std::unique_ptr<BlockSweeper>> sweepers;
          for (std::size_t i = 0; i < sweeper_ports.size(); ++i) {
              sweepers.push_back(std::make_unique<BlockSweeper>(
                  this->name() + ".sweeper" + std::to_string(i), config,
                  sweeper_ports[i], ptw));
          }
          return sweepers;
      }()),
      readerTranslator_(ptw, *this, 4)
{
    panic_if(readerPort_ == nullptr, "reclamation unit needs a port");
    panic_if(sweeper_ports.size() != config.numSweepers,
             "expected %u sweeper ports, got %zu", config.numSweepers,
             sweeper_ports.size());
    for (auto &sweeper : sweepers_) {
        // The dispatcher is each sweeper's sole work source; the
        // cycle profiler uses the edge to tell starvation from idle.
        sweeper->setUpstream(this);
    }
}

void
ReclamationUnit::start(Addr block_table_va, std::uint64_t block_count)
{
    panic_if(!done(), "reclamation unit restarted while active");
    tableVa_ = block_table_va;
    nextBlock_ = 0;
    blockCount_ = block_count;
    entryReadPending_ = false;
    entryReady_ = false;
}

bool
ReclamationUnit::done() const
{
    if (nextBlock_ < blockCount_ || entryReadPending_ || entryReady_) {
        return false;
    }
    for (const auto &sweeper : sweepers_) {
        if (!sweeper->drained()) {
            return false;
        }
    }
    return true;
}

void
ReclamationUnit::onResponse(const mem::MemResponse &resp, Tick now)
{
    pokeWakeup();
    (void)now;
    panic_if(!entryReadPending_, "unexpected block-entry response");
    entryReadPending_ = false;
    pendingJob_.entryVa =
        BlockTableEntry::addr(tableVa_, nextBlock_);
    pendingJob_.baseVa = resp.rdata[0];
    pendingJob_.cellBytes = BlockTableEntry::cellBytes(resp.rdata[1]);
    entryReady_ = true;
}

void
ReclamationUnit::tick(Tick now)
{
    // Dispatch a decoded entry to the first idle sweeper.
    if (entryReady_) {
        for (auto &sweeper : sweepers_) {
            if (sweeper->idle()) {
                sweeper->assign(pendingJob_, now);
                entryReady_ = false;
                ++nextBlock_;
                ++dispatched_;
                DPRINTF(now, "Sweep",
                        "%s: block %llu -> %s base=%#llx cell=%u",
                        name().c_str(),
                        (unsigned long long)(nextBlock_ - 1),
                        sweeper->name().c_str(),
                        (unsigned long long)pendingJob_.baseVa,
                        pendingJob_.cellBytes);
                break;
            }
        }
        return;
    }

    if (entryReadPending_ || nextBlock_ >= blockCount_) {
        return;
    }

    // Fetch the next 32-byte block-table entry.
    const Addr entry_va = BlockTableEntry::addr(tableVa_, nextBlock_);
    const std::optional<Addr> pa =
        readerTranslator_.translate(entry_va, now);
    if (!pa) {
        return;
    }

    mem::MemRequest req;
    req.paddr = *pa;
    req.size = BlockTableEntry::words * wordBytes;
    req.op = mem::Op::Read;
    if (!readerPort_->canSend()) {
        return;
    }
    readerPort_->send(req, now);
    entryReadPending_ = true;
}

Tick
ReclamationUnit::nextWakeup(Tick now) const
{
    if (entryReady_) {
        for (const auto &sweeper : sweepers_) {
            if (sweeper->idle()) {
                return now; // Dispatch possible.
            }
        }
        // All sweepers busy; one going idle happens inside its tick,
        // after which the kernel re-polls us.
        return maxTick;
    }
    if (entryReadPending_) {
        return maxTick; // Entry read resolves via onResponse.
    }
    if (nextBlock_ < blockCount_) {
        return readerTranslator_.walkPending() ? maxTick : now;
    }
    return maxTick; // Draining sweepers only.
}

CycleClass
ReclamationUnit::cycleClass(Tick now) const
{
    (void)now;
    if (done()) {
        return CycleClass::Idle;
    }
    if (entryReady_) {
        for (const auto &sweeper : sweepers_) {
            if (sweeper->idle()) {
                return CycleClass::Busy; // Dispatching this cycle.
            }
        }
        return CycleClass::StallDownstreamFull; // Every sweeper busy.
    }
    if (entryReadPending_) {
        return CycleClass::StallDram; // Block-table entry in flight.
    }
    if (nextBlock_ < blockCount_) {
        if (readerTranslator_.walkPending()) {
            return CycleClass::StallPtw;
        }
        return readerPort_->canSend() ? CycleClass::Busy
                                      : CycleClass::StallBus;
    }
    return CycleClass::StallDownstreamFull; // Sweepers still draining.
}

void
ReclamationUnit::serialize(checkpoint::Archive &ar)
{
    ar(tableVa_, nextBlock_, blockCount_, entryReadPending_, entryReady_,
       pendingJob_, stats_, readerTranslator_);
}

std::uint64_t
ReclamationUnit::cellsFreed() const
{
    std::uint64_t total = 0;
    for (const auto &sweeper : sweepers_) {
        total += sweeper->cellsFreed();
    }
    return total;
}

std::uint64_t
ReclamationUnit::cellsScanned() const
{
    std::uint64_t total = 0;
    for (const auto &sweeper : sweepers_) {
        total += sweeper->cellsScanned();
    }
    return total;
}

void
ReclamationUnit::reset()
{
    panic_if(!done(), "reclamation unit reset while active");
    readerTranslator_.flush();
    for (auto &sweeper : sweepers_) {
        sweeper->reset();
    }
}

} // namespace hwgc::core
