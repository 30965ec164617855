/**
 * @file
 * The managed heap: spaces, segregated free-list allocation, roots,
 * and the verification oracle.
 *
 * This is the language-runtime substrate the paper co-designs with
 * the accelerator (§V-A): a MarkSweep space of size-classed blocks,
 * a large object space and an immortal space, all using the
 * bidirectional object layout, plus the hwgc-space region through
 * which roots are published to the GC unit.
 *
 * All heap state lives functionally in simulated physical memory; the
 * Heap class is the runtime system's (JikesRVM's) view of it. The
 * collectors — software and hardware — mutate memory directly, and
 * the Heap re-synchronizes from memory afterwards (free-list heads,
 * registry pruning), exactly as the paper's runtime consumes the free
 * lists the reclamation unit "places into main memory for the
 * application on the CPU to use during allocation".
 */

#ifndef HWGC_RUNTIME_HEAP_H
#define HWGC_RUNTIME_HEAP_H

#include <unordered_set>
#include <vector>

#include "mem/page_table.h"
#include "mem/phys_mem.h"
#include "runtime/heap_layout.h"
#include "runtime/object_model.h"
#include "runtime/size_class.h"
#include "sim/checkpoint.h"

namespace hwgc::runtime
{

/** Identifies which space an object lives in. */
enum class Space : std::uint8_t
{
    MarkSweep, //!< Reclaimed by the sweep phase.
    Los,       //!< Large objects; traced but not reclaimed.
    Immortal,  //!< Statics / VM structures; traced, never freed.
};

/** Heap configuration. */
struct HeapParams
{
    std::uint64_t markSweepReserve = 256ULL << 20;
    std::uint64_t losReserve = 64ULL << 20;
    std::uint64_t immortalReserve = 8ULL << 20;
    Layout layout = Layout::Bidirectional;

    /**
     * Base address this heap's whole region layout is offset by.
     * Zero reproduces the classic single-tenant HeapLayout addresses;
     * fleet mode gives each tenant a disjoint stride (e.g. 2 GiB) of
     * one shared PhysMem so N heaps coexist behind one DRAM backend.
     */
    Addr addrBase = 0;

    /**
     * Map heap regions with 2 MiB superpages instead of 4 KiB pages
     * (the paper's §VII scalability suggestion): multiplies TLB reach
     * by 512 and removes most of the blocking-PTW serialization.
     */
    bool useSuperpages = false;
};

/** The managed heap. */
class Heap
{
  public:
    Heap(mem::PhysMem &mem, const HeapParams &params = {});

    /** @name Functional word access (identity VA map) @{ */
    Word read(Addr va) const { return mem_.readWord(va); }
    void write(Addr va, Word v) { mem_.writeWord(va, v); }
    /** @} */

    /**
     * Allocates an object with @p num_refs reference slots and
     * @p payload_words non-reference words.
     * @return The object reference (address of its status word).
     */
    ObjRef allocate(std::uint32_t num_refs, std::uint32_t payload_words,
                    Space space = Space::MarkSweep,
                    std::uint16_t type_id = 0, bool is_array = false);

    /** Stores @p target into reference slot @p slot of @p obj. */
    void setRef(ObjRef obj, std::uint32_t slot, ObjRef target);

    /** Loads reference slot @p slot of @p obj. */
    ObjRef getRef(ObjRef obj, std::uint32_t slot) const;

    /** Reference-slot count of @p obj (from its status word). */
    std::uint32_t numRefs(ObjRef obj) const;

    /** @name Root management (hwgc-space, §V-A "Root Scanning") @{ */
    void addRoot(ObjRef ref);
    const std::vector<ObjRef> &roots() const { return roots_; }

    /**
     * Writes the root set into the hwgc-space region where the GC
     * unit (and the software collector) will read it.
     */
    void publishRoots();

    Addr hwgcSpaceBase() const
    {
        return params_.addrBase + HeapLayout::hwgcSpaceBase;
    }
    std::uint64_t publishedRootCount() const { return publishedRoots_; }
    /** @} */

    /** @name Region bases for this instance (addrBase-shifted) @{ */
    Addr addrBase() const { return params_.addrBase; }
    Addr pageTableBase() const
    {
        return params_.addrBase + HeapLayout::pageTableBase;
    }
    Addr swQueueBase() const
    {
        return params_.addrBase + HeapLayout::swQueueBase;
    }
    std::uint64_t swQueueSize() const { return HeapLayout::swQueueSize; }
    Addr markSweepBase() const
    {
        return params_.addrBase + HeapLayout::markSweepBase;
    }
    Addr losBase() const
    {
        return params_.addrBase + HeapLayout::losBase;
    }
    Addr immortalBase() const
    {
        return params_.addrBase + HeapLayout::immortalBase;
    }
    Addr spillBase() const
    {
        return params_.addrBase + HeapLayout::spillBase;
    }
    std::uint64_t spillBytes() const { return HeapLayout::spillSize; }
    /** @} */

    /** @name Block inventory (consumed by the sweepers) @{ */
    struct BlockInfo
    {
        Addr base = 0;
        std::uint32_t cellBytes = 0;
        unsigned sizeClass = 0;

        void
        serialize(checkpoint::Archive &ar)
        {
            ar(base, cellBytes, sizeClass);
        }
    };

    const std::vector<BlockInfo> &blocks() const { return blocks_; }
    Addr blockTableBase() const
    {
        return params_.addrBase + HeapLayout::blockTableBase;
    }

    /** Address of block @p idx's descriptor in the in-memory table. */
    Addr blockTableEntryAddr(std::size_t idx) const;
    /** @} */

    /** @name Object registry & verification oracle @{ */
    struct ObjInfo
    {
        ObjRef ref = nullRef;
        Addr cell = 0;
        std::uint32_t numRefs = 0;
        std::uint32_t payloadWords = 0;
        Space space = Space::MarkSweep;

        void
        serialize(checkpoint::Archive &ar)
        {
            ar(ref, cell, numRefs, payloadWords, space);
        }
    };

    /** All objects currently known live to the runtime. */
    const std::vector<ObjInfo> &objects() const { return objects_; }

    /**
     * Computes the reachable set by BFS over functional memory —
     * the oracle both collectors are tested against.
     */
    std::unordered_set<ObjRef> computeReachable() const;

    /** Clears every registered object's mark bit (pre-GC). */
    void clearAllMarks();

    /** Number of registered objects whose mark bit is set. */
    std::uint64_t countMarked() const;
    /** @} */

    /**
     * Re-synchronizes the runtime with memory after a sweep: reloads
     * free-list heads from the block table and drops freed objects
     * from the registry.
     * @return Number of objects reclaimed.
     */
    std::uint64_t onAfterSweep();

    const mem::PageTable &pageTable() const { return pageTable_; }
    mem::PhysMem &physMem() { return mem_; }
    Layout layout() const { return params_.layout; }

    /** @name Occupancy telemetry @{ */
    std::uint64_t bytesAllocated() const { return bytesAllocated_; }
    std::uint64_t liveObjects() const { return objects_.size(); }
    /** @} */

    /** Total object size in bytes for the given shape (layout-aware). */
    std::uint64_t objectBytes(std::uint32_t num_refs,
                              std::uint32_t payload_words) const;

    /**
     * Black allocation for concurrent collection: objects allocated
     * while a concurrent mark runs are born with their mark bit set,
     * so the sweep cannot reclaim them (the standard allocate-black
     * policy of snapshot-style concurrent collectors).
     */
    void setAllocateBlack(bool on) { allocateBlack_ = on; }
    bool allocateBlack() const { return allocateBlack_; }

    /**
     * @name Runtime-view serialization (farm snapshots, DESIGN.md §11)
     *
     * Unlike a device checkpoint — which captures mid-phase
     * architectural state and is bound to one accelerator
     * configuration — this pair serializes only the runtime's view of
     * the heap (block registry, allocation cursors, roots, object
     * table). Together with the PhysMem image it reconstructs a warm
     * heap into a *freshly built* simulation of any configuration,
     * which is what lets the what-if farm fork one snapshot across a
     * config grid. The caller archives the PhysMem image separately;
     * loading must run on a Heap constructed with identical
     * HeapParams (fingerprint-checked).
     * @{
     */
    void serialize(checkpoint::Archive &ar);
    /** @} */

  private:
    /** Per-size-class allocation state. */
    struct ClassState
    {
        std::vector<std::size_t> blockIdx; //!< Blocks of this class.
        std::size_t cursor = 0; //!< Next block to look for free cells.

        void serialize(checkpoint::Archive &ar) { ar(blockIdx, cursor); }
    };

    /** Carves and formats a fresh block for size class @p cls. */
    std::size_t newBlock(unsigned cls);

    /** Pops a free cell for @p cls; formats a new block if needed. */
    Addr popFreeCell(unsigned cls);

    /** Writes a fresh object image into @p cell. */
    ObjRef formatObject(Addr cell, std::uint32_t num_refs,
                        std::uint32_t payload_words,
                        std::uint16_t type_id, bool is_array);

    /** Maps @p len bytes at identity VA==PA. */
    void mapIdentity(Addr base, std::uint64_t len);

    mem::PhysMem &mem_;
    HeapParams params_;
    mem::PageTable pageTable_;

    std::vector<BlockInfo> blocks_;
    std::array<ClassState, SizeClasses::count> classes_;
    Addr msBump_;        //!< Next un-carved block address.
    Addr losBump_;       //!< LOS bump pointer.
    Addr immortalBump_;  //!< Immortal bump pointer.

    std::vector<ObjRef> roots_;
    std::uint64_t publishedRoots_ = 0;

    std::vector<ObjInfo> objects_;
    std::uint64_t bytesAllocated_ = 0;
    bool allocateBlack_ = false;
};

} // namespace hwgc::runtime

#endif // HWGC_RUNTIME_HEAP_H
