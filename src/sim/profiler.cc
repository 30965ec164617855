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
        comps_.emplace_back(c, labels);
        groups_.add(prefix_ + ".profile." + c->name(),
                    *comps_.back().group);
    }
}

void
CycleProfiler::accrue(Tick now, std::uint64_t weight)
{
    observed_ += weight;
    for (auto &pc : comps_) {
        const auto cls = std::size_t(pc.clocked->cycleClass(now));
        pc.total.add(cls, weight);
        if (currentPhase_ >= 0) {
            pc.phase[std::size_t(currentPhase_)]->add(cls, weight);
        }
    }
}

void
CycleProfiler::cycleExecuted(Tick now, std::uint64_t active_mask)
{
    accrue(now, 1);
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
    // have produced.
    accrue(from, to - from);
    if (chain_ != nullptr) {
        chain_->fastForwarded(from, to);
    }
}

void
CycleProfiler::beginPhase(const std::string &name)
{
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
    return comps_.at(i).total.value(std::size_t(c));
}

std::uint64_t
CycleProfiler::accounted(std::size_t i) const
{
    return comps_.at(i).total.total();
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
        const stats::Vector &v =
            phase_idx < 0 ? pc.total : *pc.phase[std::size_t(phase_idx)];
        sum += v.value(std::size_t(c));
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
        for (const auto &pc : comps_) {
            const stats::Vector &v =
                p < 0 ? pc.total : *pc.phase[std::size_t(p)];
            for (std::size_t c = 0; c < numCycleClasses; ++c) {
                agg[c] += v.value(c);
            }
        }
        printLine("(aggregated)", agg);
        for (const auto &pc : comps_) {
            const stats::Vector &v =
                p < 0 ? pc.total : *pc.phase[std::size_t(p)];
            std::uint64_t row[numCycleClasses];
            for (std::size_t c = 0; c < numCycleClasses; ++c) {
                row[c] = v.value(c);
            }
            printLine(pc.clocked->name(), row);
        }
    }
}

} // namespace hwgc::telemetry
