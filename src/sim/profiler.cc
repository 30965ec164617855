#include "sim/profiler.h"

#include <algorithm>
#include <cinttypes>
#include <utility>

#include "sim/telemetry.h"

namespace hwgc::telemetry
{
namespace
{

std::vector<std::string>
classLabels()
{
    std::vector<std::string> labels;
    labels.reserve(numCycleClasses);
    for (std::size_t c = 0; c < numCycleClasses; ++c) {
        labels.emplace_back(cycleClassName(CycleClass(c)));
    }
    return labels;
}

} // namespace

CycleProfiler::CycleProfiler(System &system, std::string stats_prefix)
    : system_(system), prefix_(std::move(stats_prefix))
{
    const auto labels = classLabels();
    // reserve() up front: each group holds a pointer to its element's
    // total, so the vector must never reallocate.
    comps_.reserve(system_.components().size());
    for (const Clocked *c : system_.components()) {
        mask_ |= std::uint64_t(1) << comps_.size();
        comps_.emplace_back(c, labels);
        PerComponent &pc = comps_.back();
        pc.group->setPreDump([this] { publish(); });
        groups_.add(prefix_ + ".profile." + c->name(), *pc.group);
    }
}

void
CycleProfiler::observe(Tick now, std::uint64_t stale, std::uint64_t weight)
{
    for (stale &= mask_; stale != 0; stale &= stale - 1) {
        PerComponent &pc = comps_[std::size_t(__builtin_ctzll(stale))];
        const CycleClass cls = pc.clocked->cycleClass(now);
        if (cls != pc.cls) {
            closeRun(pc);
            pc.cls = cls;
        }
    }
    observed_ += weight;
}

void
CycleProfiler::closeRun(PerComponent &pc)
{
    const std::uint64_t n = observed_ - pc.since;
    if (n == 0) {
        return;
    }
    pc.total.add(std::size_t(pc.cls), n);
    if (currentPhase_ >= 0) {
        pc.phase[std::size_t(currentPhase_)]->add(std::size_t(pc.cls), n);
    }
    pc.since = observed_;
}

void
CycleProfiler::publish()
{
    for (auto &pc : comps_) {
        closeRun(pc);
    }
}

std::uint64_t
CycleProfiler::count(const PerComponent &pc, int phase_idx,
                     CycleClass c) const
{
    const stats::Vector &v =
        phase_idx < 0 ? pc.total : *pc.phase[std::size_t(phase_idx)];
    std::uint64_t n = v.value(std::size_t(c));
    if (pc.cls == c && (phase_idx < 0 || phase_idx == currentPhase_)) {
        n += observed_ - pc.since;
    }
    return n;
}

void
CycleProfiler::cycleExecuted(Tick now, std::uint64_t active_mask)
{
    // The ticked mask under the event kernel; reclassify() takes
    // every component under the dense one, whose mask is busy().
    observe(now, system_.reclassify(active_mask), 1);
    if (chain_ != nullptr) {
        chain_->cycleExecuted(now, active_mask);
    }
}

void
CycleProfiler::fastForwarded(Tick from, Tick to)
{
    // Nothing ticked across the gap, but skipped components may have
    // replayed their own accrual into it (a token bucket refilling, a
    // blocked retry's TLB stamps). None of that changes a class: the
    // gap ends where one could (the bus wakes when a bucket first
    // covers a ready head). So one classification, weighted by the
    // gap's width, is exactly what per-cycle classification would
    // have produced — and a component the gap start does not
    // re-classify keeps the class of the pass before it.
    observe(from, system_.reclassify(0), to - from);
    if (chain_ != nullptr) {
        chain_->fastForwarded(from, to);
    }
}

void
CycleProfiler::beginPhase(const std::string &name)
{
    publish(); // The open runs belong to the phase (or none) before.
    int idx = phaseIndex(name);
    if (idx < 0) {
        // First time this phase runs: give every component a vector.
        // Re-entering an existing phase (later GC pauses, resumed
        // checkpoints) accrues into the same vectors, so per-phase
        // attribution is cumulative over the run.
        idx = int(phaseNames_.size());
        phaseNames_.push_back(name);
        const auto labels = classLabels();
        for (auto &pc : comps_) {
            pc.phase.push_back(
                std::make_unique<stats::Vector>(*pc.group, name, labels));
        }
    }
    currentPhase_ = idx;
    auto &tw = TraceWriter::global();
    if (tw.enabled()) {
        // Zero-sample every class track at the phase start so each
        // phase renders as a ramp up to its aggregate in the trace.
        for (std::size_t c = 0; c < numCycleClasses; ++c) {
            tw.counter(prefix_ + ".profile." +
                           cycleClassName(CycleClass(c)),
                       system_.now(), 0.0);
        }
    }
}

void
CycleProfiler::endPhase()
{
    if (currentPhase_ < 0) {
        return;
    }
    publish();
    auto &tw = TraceWriter::global();
    if (tw.enabled()) {
        for (std::size_t c = 0; c < numCycleClasses; ++c) {
            tw.counter(
                prefix_ + ".profile." + cycleClassName(CycleClass(c)),
                system_.now(),
                double(aggregateIn(currentPhase_, CycleClass(c))));
        }
    }
    currentPhase_ = -1;
}

const std::string &
CycleProfiler::componentName(std::size_t i) const
{
    return comps_.at(i).clocked->name();
}

std::uint64_t
CycleProfiler::cycles(std::size_t i, CycleClass c) const
{
    return count(comps_.at(i), -1, c);
}

std::uint64_t
CycleProfiler::accounted(std::size_t i) const
{
    const PerComponent &pc = comps_.at(i);
    return pc.total.total() + (observed_ - pc.since);
}

std::uint64_t
CycleProfiler::aggregate(CycleClass c) const
{
    return aggregateIn(-1, c);
}

std::uint64_t
CycleProfiler::phaseAggregate(const std::string &phase,
                              CycleClass c) const
{
    const int idx = phaseIndex(phase);
    return idx < 0 ? 0 : aggregateIn(idx, c);
}

CycleClass
CycleProfiler::topStallClass() const
{
    return topStallIn(-1);
}

CycleClass
CycleProfiler::topStallClass(const std::string &phase) const
{
    // An unknown phase falls back to the whole-run answer.
    return topStallIn(phaseIndex(phase));
}

std::uint64_t
CycleProfiler::aggregateIn(int phase_idx, CycleClass c) const
{
    std::uint64_t sum = 0;
    for (const auto &pc : comps_) {
        sum += count(pc, phase_idx, c);
    }
    return sum;
}

int
CycleProfiler::phaseIndex(const std::string &name) const
{
    for (std::size_t i = 0; i < phaseNames_.size(); ++i) {
        if (phaseNames_[i] == name) {
            return int(i);
        }
    }
    return -1;
}

CycleClass
CycleProfiler::topStallIn(int phase_idx) const
{
    CycleClass best = CycleClass::StallDownstreamFull;
    std::uint64_t bestCount = 0;
    for (std::size_t c = 0; c < numCycleClasses; ++c) {
        const auto cls = CycleClass(c);
        if (!isStallClass(cls)) {
            continue;
        }
        const std::uint64_t n = aggregateIn(phase_idx, cls);
        if (n > bestCount) { // Strict: ties keep the lower enum value.
            best = cls;
            bestCount = n;
        }
    }
    return best;
}

void
CycleProfiler::report(std::FILE *out, std::size_t top_n) const
{
    std::fprintf(out,
                 "cycle accounting: %s (%" PRIu64
                 " cycles observed, %zu components)\n",
                 prefix_.c_str(), observed_, comps_.size());

    const auto printLine = [&](const std::string &label,
                               const std::uint64_t (
                                   &counts)[numCycleClasses]) {
        std::uint64_t total = 0;
        for (std::size_t c = 0; c < numCycleClasses; ++c) {
            total += counts[c];
        }
        if (total == 0) {
            std::fprintf(out, "    %-18s (no cycles)\n", label.c_str());
            return;
        }
        const auto pct = [total](std::uint64_t n) {
            return 100.0 * double(n) / double(total);
        };
        std::fprintf(out, "    %-18s busy %5.1f%%  idle %5.1f%%  stalls:",
                     label.c_str(),
                     pct(counts[std::size_t(CycleClass::Busy)]),
                     pct(counts[std::size_t(CycleClass::Idle)]));
        std::vector<std::pair<std::uint64_t, std::size_t>> stalls;
        for (std::size_t c = 0; c < numCycleClasses; ++c) {
            if (isStallClass(CycleClass(c)) && counts[c] != 0) {
                stalls.emplace_back(counts[c], c);
            }
        }
        std::sort(stalls.begin(), stalls.end(),
                  [](const auto &a, const auto &b) {
                      return a.first != b.first ? a.first > b.first
                                                : a.second < b.second;
                  });
        if (stalls.empty()) {
            std::fprintf(out, " none");
        }
        for (std::size_t i = 0; i < stalls.size() && i < top_n; ++i) {
            std::fprintf(out, " %s %.1f%%",
                         cycleClassName(CycleClass(stalls[i].second)),
                         pct(stalls[i].first));
        }
        std::fprintf(out, "\n");
    };

    for (int p = -1; p < int(phaseNames_.size()); ++p) {
        std::fprintf(out, "  [%s]\n",
                     p < 0 ? "run total" : phaseNames_[p].c_str());
        std::uint64_t agg[numCycleClasses] = {};
        for (std::size_t c = 0; c < numCycleClasses; ++c) {
            agg[c] = aggregateIn(p, CycleClass(c));
        }
        printLine("(aggregated)", agg);
        for (const auto &pc : comps_) {
            std::uint64_t row[numCycleClasses];
            for (std::size_t c = 0; c < numCycleClasses; ++c) {
                row[c] = count(pc, p, CycleClass(c));
            }
            printLine(pc.clocked->name(), row);
        }
    }
}

} // namespace hwgc::telemetry
