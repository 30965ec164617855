/**
 * @file
 * The tracer queue decoupling marker and tracer (paper §IV-A idea II,
 * Fig 7): "our traversal unit consists of a pipeline with a marker
 * and a tracer connected via a tracer queue. If a long object is
 * being examined by the tracer, the marker continues operating and
 * the queue fills up."
 */

#ifndef HWGC_CORE_TRACE_QUEUE_H
#define HWGC_CORE_TRACE_QUEUE_H

#include <deque>

#include "sim/checkpoint.h"
#include "sim/logging.h"
#include "sim/stats.h"
#include "sim/types.h"

namespace hwgc::core
{

/** A newly marked object awaiting reference tracing. */
struct TraceEntry
{
    Addr ref = 0;               //!< Status-word VA.
    std::uint32_t numRefs = 0;  //!< Outbound reference count.

    void serialize(checkpoint::Archive &ar) { ar(ref, numRefs); }
};

/** Bounded FIFO between marker (producer) and tracer (consumer). */
class TraceQueue
{
  public:
    explicit TraceQueue(unsigned capacity) : capacity_(capacity)
    {
        panic_if(capacity_ == 0, "tracer queue needs capacity");
    }

    bool canPush() const { return q_.size() < capacity_; }

    void
    push(const TraceEntry &e)
    {
        panic_if(!canPush(), "tracer queue overflow");
        q_.push_back(e);
        if (q_.size() > maxDepth_.value()) {
            maxDepth_.set(q_.size());
        }
    }

    bool empty() const { return q_.empty(); }
    std::size_t size() const { return q_.size(); }

    TraceEntry
    pop()
    {
        panic_if(q_.empty(), "tracer queue underflow");
        const TraceEntry e = q_.front();
        q_.pop_front();
        return e;
    }

    void clear() { q_.clear(); }

    std::uint64_t maxDepth() const { return maxDepth_.value(); }
    void resetStats() { stats_.reset(); }
    const stats::Group &stats() const { return stats_; }

    void
    serialize(checkpoint::Archive &ar)
    {
        const std::uint64_t count = ar.count(q_.size());
        if (ar.loading()) {
            fatal_if(count > capacity_,
                     "checkpoint '%s': trace queue holds %llu entries but "
                     "has capacity %u — configurations differ",
                     ar.origin().c_str(), (unsigned long long)count,
                     capacity_);
            q_.resize(std::size_t(count));
        }
        for (TraceEntry &e : q_) {
            ar(e);
        }
        ar(stats_);
    }

  private:
    unsigned capacity_;
    std::deque<TraceEntry> q_;
    stats::Group stats_{"traceQueue"};
    stats::Scalar maxDepth_{stats_, "maxDepth"};
};

} // namespace hwgc::core

#endif // HWGC_CORE_TRACE_QUEUE_H
