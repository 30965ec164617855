/**
 * @file
 * Heap-graph synthesis implementation.
 */

#include "graph_gen.h"

#include <algorithm>
#include <unordered_set>

namespace hwgc::workload
{

using runtime::ObjRef;
using runtime::Space;

GraphBuilder::GraphBuilder(runtime::Heap &heap,
                           const GraphParams &params)
    : heap_(heap), params_(params), rng_(params.seed)
{
}

void
GraphBuilder::serialize(checkpoint::Archive &ar)
{
    // The whole shape first: the same stream under other parameters
    // draws a different graph.
    GraphParams file = params_;
    ar(file);
    fatal_if(ar.loading() && file != params_,
             "builder snapshot '%s' was taken under different GraphParams",
             ar.origin().c_str());
    ar(rng_, built_, liveSet_, hotSet_);
}

ObjRef
GraphBuilder::allocateOne(bool allow_array)
{
    const bool is_array =
        allow_array && rng_.chance(params_.arrayFraction);
    std::uint32_t num_refs;
    std::uint32_t payload;
    if (is_array) {
        num_refs = std::uint32_t(std::max<std::uint64_t>(
            1, rng_.geometric(params_.avgArrayLen, params_.maxArrayLen)));
        payload = 0;
    } else {
        num_refs = std::uint32_t(std::max<std::uint64_t>(
            params_.minRefs,
            rng_.geometric(params_.avgRefs, params_.maxRefs)));
        payload = std::uint32_t(rng_.geometric(
            params_.avgPayloadWords, params_.maxPayloadWords));
    }
    const Space space = rng_.chance(params_.largeFraction)
        ? Space::Los : Space::MarkSweep;
    const std::uint16_t type_id =
        std::uint16_t(rng_.below(256) | (is_array ? 0x100 : 0));
    ++built_;
    const ObjRef ref =
        heap_.allocate(num_refs, payload, space, type_id, is_array);
    // Sparse-layout padding: dead filler after every real allocation
    // spreads consecutive objects across pages (TLB-thrash shape).
    // Pads are never wired, so they die at the first sweep and leave
    // persistent holes; they do not count toward the live target.
    for (std::uint64_t i = 0; i < params_.sparsePadObjects; ++i) {
        heap_.allocate(0, params_.maxPayloadWords, Space::MarkSweep,
                       0x3FF, false);
    }
    return ref;
}

ObjRef
GraphBuilder::pickExisting()
{
    if (!hotSet_.empty() && rng_.chance(params_.hotRefFraction)) {
        return hotSet_[rng_.below(hotSet_.size())];
    }
    if (liveSet_.empty()) {
        return runtime::nullRef;
    }
    if (rng_.chance(params_.localityBias)) {
        const std::size_t window =
            std::min(params_.localityWindow, liveSet_.size());
        return liveSet_[liveSet_.size() - 1 - rng_.below(window)];
    }
    return liveSet_[rng_.below(liveSet_.size())];
}

void
GraphBuilder::wireRefs(ObjRef obj, std::vector<ObjRef> &frontier)
{
    const std::uint32_t n = heap_.numRefs(obj);
    for (std::uint32_t slot = 0; slot < n; ++slot) {
        if (built_ < params_.liveObjects &&
            !rng_.chance(params_.shareProb)) {
            const ObjRef child = allocateOne(true);
            liveSet_.push_back(child);
            frontier.push_back(child);
            heap_.setRef(obj, slot, child);
        } else {
            // Share an existing object; cycles arise naturally since
            // ancestors are in the live set, and are forced
            // occasionally to guarantee cyclic structure.
            ObjRef target = pickExisting();
            if (target == runtime::nullRef || rng_.chance(0.1)) {
                // Leave some slots null, as real heaps have.
                target = runtime::nullRef;
            }
            heap_.setRef(obj, slot, target);
        }
    }
}

void
GraphBuilder::build()
{
    // Hot set: a few heavily shared objects (class/type metadata in
    // real heaps), allocated first in the immortal space.
    for (std::uint64_t i = 0; i < params_.hotObjects; ++i) {
        const ObjRef hot = heap_.allocate(
            2, 4, Space::Immortal, std::uint16_t(0x200 + i), false);
        hotSet_.push_back(hot);
        liveSet_.push_back(hot);
        ++built_;
    }

    // Roots and the reachable graph, breadth-first.
    std::vector<ObjRef> frontier;
    for (unsigned i = 0; i < params_.numRoots; ++i) {
        const ObjRef root = allocateOne(false);
        heap_.addRoot(root);
        liveSet_.push_back(root);
        frontier.push_back(root);
    }
    std::size_t cursor = 0;
    while (built_ < params_.liveObjects) {
        if (cursor >= frontier.size()) {
            // Frontier exhausted: attach a fresh subtree to a root.
            const ObjRef extra = allocateOne(true);
            liveSet_.push_back(extra);
            frontier.push_back(extra);
            const ObjRef anchor =
                liveSet_[rng_.below(liveSet_.size())];
            const std::uint32_t n = heap_.numRefs(anchor);
            if (n > 0) {
                heap_.setRef(anchor, rng_.below(n), extra);
            } else {
                heap_.addRoot(extra);
            }
        }
        wireRefs(frontier[cursor], frontier);
        ++cursor;
    }
    // Wire any frontier tail that got created but not yet filled.
    for (; cursor < frontier.size(); ++cursor) {
        const ObjRef obj = frontier[cursor];
        const std::uint32_t n = heap_.numRefs(obj);
        for (std::uint32_t slot = 0; slot < n; ++slot) {
            heap_.setRef(obj, slot, pickExisting());
        }
    }

    // Unreachable garbage: objects wired only among themselves and
    // into the live set (dead -> live edges are legal and common).
    std::vector<ObjRef> garbage;
    garbage.reserve(params_.garbageObjects);
    for (std::uint64_t i = 0; i < params_.garbageObjects; ++i) {
        garbage.push_back(allocateOne(true));
    }
    for (const ObjRef obj : garbage) {
        const std::uint32_t n = heap_.numRefs(obj);
        for (std::uint32_t slot = 0; slot < n; ++slot) {
            if (!garbage.empty() && rng_.chance(0.5)) {
                heap_.setRef(obj, slot,
                             garbage[rng_.below(garbage.size())]);
            } else {
                heap_.setRef(obj, slot, pickExisting());
            }
        }
    }

    heap_.publishRoots();
}

void
GraphBuilder::mutate(double churn)
{
    // Rebuild the live candidate list from the surviving registry,
    // and drop hot-set members that did not survive (wiring an edge
    // to a dead object would resurrect dangling references).
    liveSet_.clear();
    std::unordered_set<runtime::ObjRef> survivors;
    for (const auto &info : heap_.objects()) {
        liveSet_.push_back(info.ref);
        survivors.insert(info.ref);
    }
    std::erase_if(hotSet_, [&survivors](runtime::ObjRef ref) {
        return survivors.count(ref) == 0;
    });
    if (liveSet_.empty()) {
        return;
    }

    const std::uint64_t turnover =
        std::uint64_t(double(liveSet_.size()) * churn);

    // Drop edges: turns subtrees into garbage. Sharing means many
    // severed edges have surviving alternate paths, so cut more edges
    // than we allocate replacements — proportionally more for
    // heavily shared graphs — and apply negative feedback against
    // the profile's target live-set size so pauses stay steady-state
    // across GC cycles instead of ratcheting upward.
    const double pressure = std::max(
        0.5, double(liveSet_.size()) /
                 double(std::max<std::uint64_t>(1,
                                                params_.liveObjects)));
    const std::uint64_t cuts = std::uint64_t(
        2.0 * double(turnover) * pressure * pressure /
        (1.0 - params_.shareProb));
    const std::uint64_t allocs =
        std::uint64_t(double(turnover) / pressure);
    for (std::uint64_t i = 0; i < cuts; ++i) {
        const ObjRef victim = liveSet_[rng_.below(liveSet_.size())];
        const std::uint32_t n = heap_.numRefs(victim);
        if (n > 0) {
            heap_.setRef(victim, rng_.below(n), runtime::nullRef);
        }
    }

    // Allocate replacements attached to random survivors; objects
    // whose anchor has no reference slots are immediate garbage, as
    // in real allocation-heavy phases.
    for (std::uint64_t i = 0; i < allocs; ++i) {
        const ObjRef fresh = allocateOne(true);
        const std::uint32_t fn = heap_.numRefs(fresh);
        for (std::uint32_t slot = 0; slot < fn; ++slot) {
            if (rng_.chance(params_.shareProb)) {
                heap_.setRef(fresh, slot, pickExisting());
            }
        }
        for (unsigned attempt = 0; attempt < 4; ++attempt) {
            const ObjRef anchor =
                liveSet_[rng_.below(liveSet_.size())];
            const std::uint32_t n = heap_.numRefs(anchor);
            if (n > 0) {
                heap_.setRef(anchor, rng_.below(n), fresh);
                liveSet_.push_back(fresh);
                break;
            }
        }
    }

    heap_.publishRoots();
}

} // namespace hwgc::workload
