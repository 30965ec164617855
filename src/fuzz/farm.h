/**
 * @file
 * What-if farm snapshots (DESIGN.md §11).
 *
 * A farm snapshot is the *device-independent* sibling of the PR-4
 * device checkpoint: it captures a warm heap — the functional memory
 * image plus the runtime's and graph builder's view of it — without
 * any accelerator state, so one snapshot forks into simulations of
 * arbitrarily different accelerator configurations. That is exactly
 * what a device checkpoint cannot do (its config signature pins the
 * architecture), and it is what lets whatif_farm.py amortize heap
 * construction across a 12+ point config grid: build and churn once,
 * restore everywhere, run one measured pause per grid point.
 *
 * File layout (standard chunked checkpoint container, see
 * sim/checkpoint.h):
 *
 *   chunk "farm"        version, seed, warm pauses, live count, ...
 *   chunk "graphparams" full GraphParams (reconstructs the builder)
 *   chunk "heap"        Heap::serialize (runtime view)
 *   chunk "builder"     GraphBuilder::serialize (RNG + candidate lists)
 *   chunk "physmem"     functional memory image
 */

#ifndef HWGC_FUZZ_FARM_H
#define HWGC_FUZZ_FARM_H

#include <memory>
#include <string>

#include "workload/graph_gen.h"

namespace hwgc::fuzz
{

/** Provenance carried inside a farm snapshot. */
struct FarmMeta
{
    std::uint64_t seed = 0;       //!< Workload seed.
    std::uint64_t warmPauses = 0; //!< GC pauses run before snapshot.
    std::uint64_t liveObjects = 0;
    std::uint64_t bytesAllocated = 0;
};

/** A warm heap reconstructed from (or about to become) a snapshot. */
struct FarmUniverse
{
    FarmMeta meta;
    workload::GraphParams params;
    std::unique_ptr<mem::PhysMem> mem;
    std::unique_ptr<runtime::Heap> heap;
    std::unique_ptr<workload::GraphBuilder> builder;
};

/** Serializes a warm heap to @p path; a failed write is fatal,
 *  naming the path. */
void saveFarmSnapshot(const std::string &path, FarmMeta meta,
                      workload::GraphParams params, runtime::Heap &heap,
                      workload::GraphBuilder &builder, mem::PhysMem &mem);

/**
 * Reconstructs the warm heap from @p path into a fresh universe. The
 * caller then builds a device of *any* configuration over
 * universe.heap and runs measured pauses; corrupt or mismatched
 * snapshots fatal() with the offending chunk named.
 */
FarmUniverse loadFarmSnapshot(const std::string &path);

} // namespace hwgc::fuzz

#endif // HWGC_FUZZ_FARM_H
