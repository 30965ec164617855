/**
 * @file
 * The reader that streams the published root set into the mark queue
 * at the start of a traversal (paper Fig 5 / §V-C: "At the beginning
 * of a GC, a reader copies all references from the hwgc-space into
 * the mark queue").
 */

#ifndef HWGC_CORE_ROOT_READER_H
#define HWGC_CORE_ROOT_READER_H

#include <deque>

#include "core/hwgc_config.h"
#include "core/mark_queue.h"
#include "mem/translator.h"

namespace hwgc::core
{

/** Streams hwgc-space roots into the mark queue. */
class RootReader : public Clocked, public mem::MemResponder
{
  public:
    RootReader(std::string name, const HwgcConfig &config,
               MarkQueue &mark_queue, mem::MemPort *port,
               mem::Ptw &ptw);

    /** Arms the reader for a root array of @p count references. */
    void start(Addr base_va, std::uint64_t count);

    /**
     * Grows the region while the reader runs. This is the concurrent
     * write-barrier channel of paper §IV-D: mutators append
     * overwritten references to the same region used to communicate
     * the roots, and "the traversal unit writes all references that
     * are written into this region to the mark queue".
     */
    void extend(std::uint64_t count);

    /** True once every root reached the mark queue. */
    bool done() const;

    // MemResponder interface.
    void onResponse(const mem::MemResponse &resp, Tick now) override;

    // Clocked interface.
    void tick(Tick now) override;
    bool busy() const override { return !done(); }
    Tick nextWakeup(Tick now) const override;
    CycleClass cycleClass(Tick now) const override;
    void serialize(checkpoint::Archive &ar) override;

    void reset();

    std::uint64_t rootsRead() const { return rootsRead_.value(); }

    /**
     * The cycle the reader first finished the armed region (0 while
     * still streaming). Telemetry uses this as the root-scan phase
     * boundary inside the mark span.
     */
    Tick doneAt() const { return doneAt_; }


  private:
    /** Records the first completion cycle (observational only). */
    void
    noteDone(Tick now)
    {
        if (doneAt_ == 0 && end_ != 0 && done()) {
            doneAt_ = now;
        }
    }

    HwgcConfig config_;
    MarkQueue &markQueue_;
    mem::MemPort *port_;
    mem::Translator translator_;

    Addr base_ = 0;
    Addr cursor_ = 0;
    Addr end_ = 0;
    unsigned inFlight_ = 0;
    std::deque<Addr> pending_;

    Tick doneAt_ = 0;

    stats::Scalar rootsRead_{stats_, "rootsRead"};
};

} // namespace hwgc::core

#endif // HWGC_CORE_ROOT_READER_H
