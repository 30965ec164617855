/**
 * @file
 * Farm snapshot serialization.
 */

#include "farm.h"

#include <tuple>

#include "sim/logging.h"

namespace hwgc::fuzz
{

namespace
{

constexpr std::uint64_t farmVersion = 1;

/**
 * The snapshot's chunks, in file order, in both directions. @p parts
 * runs between the graphparams and heap chunks and returns the
 * (memory, heap, builder) to archive: loading builds the universe
 * there from the sizes and params just read.
 */
template <typename Parts>
void
serializeFarm(checkpoint::Archive &ar, FarmMeta &meta,
              workload::GraphParams &params, std::uint64_t mem_bytes,
              Parts &&parts)
{
    ar.beginChunk("farm");
    std::uint64_t version = farmVersion;
    ar(version);
    if (ar.loading()) {
        fatal_if(version != farmVersion,
                 "farm snapshot '%s': unsupported version %llu",
                 ar.origin().c_str(),
                 static_cast<unsigned long long>(version));
    }
    ar(meta.seed, meta.warmPauses, meta.liveObjects, meta.bytesAllocated,
       mem_bytes);
    ar.endChunk();
    ar.chunk("graphparams", params);

    auto [mem, heap, builder] = parts(mem_bytes);
    ar.chunk("heap", heap);
    ar.chunk("builder", builder);
    ar.beginChunk("physmem");
    checkpoint::physMem(ar, mem);
    ar.endChunk();
}

} // namespace

void
saveFarmSnapshot(const std::string &path, FarmMeta meta,
                 workload::GraphParams params, runtime::Heap &heap,
                 workload::GraphBuilder &builder, mem::PhysMem &mem)
{
    const bool written =
        checkpoint::save(path, [&](checkpoint::Archive &ar) {
            serializeFarm(ar, meta, params, mem.size(), [&](std::uint64_t) {
                return std::tie(mem, heap, builder);
            });
        });
    fatal_if(!written, "farm: cannot write snapshot '%s'", path.c_str());
}

FarmUniverse
loadFarmSnapshot(const std::string &path)
{
    FarmUniverse u;
    // Construct the universe before touching the image: the Heap
    // constructor maps the metadata regions and formats memory, all of
    // which the physmem chunk (restored last) overwrites with the
    // snapshotted bytes — including the page-table entries the
    // restored pagesAllocated count refers to.
    checkpoint::load(path, [&u](checkpoint::Archive &ar) {
        serializeFarm(ar, u.meta, u.params, 0, [&u](std::uint64_t bytes) {
            u.mem = std::make_unique<mem::PhysMem>(bytes);
            u.heap = std::make_unique<runtime::Heap>(*u.mem);
            u.builder =
                std::make_unique<workload::GraphBuilder>(*u.heap, u.params);
            return std::tie(*u.mem, *u.heap, *u.builder);
        });
    });
    return u;
}

} // namespace hwgc::fuzz
