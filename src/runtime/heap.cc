/**
 * @file
 * Managed heap implementation.
 */

#include "heap.h"

#include <deque>

#include "runtime/block_table.h"

namespace hwgc::runtime
{

Heap::Heap(mem::PhysMem &mem, const HeapParams &params)
    : mem_(mem), params_(params),
      pageTable_(mem, params.addrBase + HeapLayout::pageTableBase,
                 HeapLayout::pageTableSize),
      msBump_(params.addrBase + HeapLayout::markSweepBase),
      losBump_(params.addrBase + HeapLayout::losBase),
      immortalBump_(params.addrBase + HeapLayout::immortalBase)
{
    // Metadata and bump spaces are mapped eagerly; MarkSweep blocks
    // are mapped as they are carved (superpage mode maps the whole
    // reserve up front instead — real superpage heaps are contiguous
    // reservations).
    mapIdentity(blockTableBase(), HeapLayout::blockTableSize);
    mapIdentity(hwgcSpaceBase(), HeapLayout::hwgcSpaceSize);
    mapIdentity(swQueueBase(), HeapLayout::swQueueSize);
    mapIdentity(losBase(), params_.losReserve);
    mapIdentity(immortalBase(), params_.immortalReserve);
    if (params_.useSuperpages) {
        mapIdentity(markSweepBase(), params_.markSweepReserve);
    }
}

void
Heap::mapIdentity(Addr base, std::uint64_t len)
{
    if (params_.useSuperpages) {
        constexpr std::uint64_t super = 2ULL << 20;
        pageTable_.mapSuper(base, base, alignUp(len, super));
    } else {
        pageTable_.map(base, base, alignUp(len, pageBytes));
    }
}

std::uint64_t
Heap::objectBytes(std::uint32_t num_refs,
                  std::uint32_t payload_words) const
{
    const std::uint32_t extra =
        (params_.layout == Layout::Tib) ? 1 : 0;
    return ObjectModel::sizeWords(num_refs, payload_words + extra) *
        wordBytes;
}

std::size_t
Heap::newBlock(unsigned cls)
{
    const std::uint64_t used = msBump_ - markSweepBase();
    fatal_if(used + blockBytes > params_.markSweepReserve,
             "MarkSweep space exhausted (%llu blocks)",
             (unsigned long long)blocks_.size());
    fatal_if((blocks_.size() + 1) * BlockTableEntry::words * wordBytes >
             HeapLayout::blockTableSize, "block table exhausted");

    const Addr base = msBump_;
    msBump_ += blockBytes;
    if (!params_.useSuperpages) {
        mapIdentity(base, blockBytes); // Superpage mode premaps all.
    }

    const std::uint32_t cell_bytes = SizeClasses::bytesFor(cls);
    const std::uint64_t cells = blockBytes / cell_bytes;

    // Format the free list through all cells, ascending.
    for (std::uint64_t i = 0; i < cells; ++i) {
        const Addr cell = base + i * cell_bytes;
        const Addr next =
            (i + 1 < cells) ? cell + cell_bytes : nullRef;
        mem_.writeWord(cell, CellStart::makeFree(next));
    }

    const std::size_t idx = blocks_.size();
    blocks_.push_back({base, cell_bytes, cls});
    classes_[cls].blockIdx.push_back(idx);

    const Addr entry = BlockTableEntry::addr(blockTableBase(), idx);
    mem_.writeWord(entry, base);
    mem_.writeWord(entry + wordBytes,
                   BlockTableEntry::makeGeometry(cell_bytes, cls));
    mem_.writeWord(entry + 2 * wordBytes, base); // Free head: 1st cell.
    mem_.writeWord(entry + 3 * wordBytes,
                   BlockTableEntry::makeSummary(std::uint32_t(cells),
                                                false));
    return idx;
}

Addr
Heap::popFreeCell(unsigned cls)
{
    ClassState &state = classes_[cls];
    while (state.cursor < state.blockIdx.size()) {
        const std::size_t idx = state.blockIdx[state.cursor];
        const Addr head_addr =
            BlockTableEntry::addr(blockTableBase(), idx) + 2 * wordBytes;
        const Addr head = mem_.readWord(head_addr);
        if (head != nullRef) {
            const Word link = mem_.readWord(head);
            panic_if(CellStart::isLive(link),
                     "free-list head %#llx is a live cell",
                     (unsigned long long)head);
            mem_.writeWord(head_addr, CellStart::nextFree(link));
            return head;
        }
        ++state.cursor;
    }
    const std::size_t idx = newBlock(cls);
    const Addr head_addr =
        BlockTableEntry::addr(blockTableBase(), idx) + 2 * wordBytes;
    const Addr head = mem_.readWord(head_addr);
    const Word link = mem_.readWord(head);
    mem_.writeWord(head_addr, CellStart::nextFree(link));
    // Point the cursor at the fresh block for subsequent allocations.
    state.cursor = state.blockIdx.size() - 1;
    return head;
}

ObjRef
Heap::formatObject(Addr cell, std::uint32_t num_refs,
                   std::uint32_t payload_words, std::uint16_t type_id,
                   bool is_array)
{
    mem_.writeWord(cell, CellStart::makeLive(num_refs));
    for (std::uint32_t i = 0; i < num_refs; ++i) {
        mem_.writeWord(cell + (1ULL + i) * wordBytes, nullRef);
    }
    const ObjRef ref = ObjectModel::refFromCell(cell, num_refs);
    Word header = StatusWord::make(num_refs, type_id, is_array);
    if (allocateBlack_) {
        header |= StatusWord::markBit;
    }
    mem_.writeWord(ref, header);
    const std::uint32_t extra =
        (params_.layout == Layout::Tib) ? 1 : 0;
    for (std::uint32_t i = 0; i < payload_words + extra; ++i) {
        mem_.writeWord(ref + (1ULL + i) * wordBytes, 0);
    }
    if (params_.layout == Layout::Tib) {
        // Conventional layout keeps type metadata behind a TIB pointer
        // (Fig 6a). Point the first hidden word at a per-type TIB in
        // the immortal space; the tracer's TIB-mode path reads it to
        // model the extra accesses the bidirectional layout removes.
        const Addr tib = immortalBase() +
            (Addr(type_id) % 1024) * lineBytes;
        mem_.writeWord(ref + wordBytes, tib);
    }
    return ref;
}

ObjRef
Heap::allocate(std::uint32_t num_refs, std::uint32_t payload_words,
               Space space, std::uint16_t type_id, bool is_array)
{
    const std::uint64_t bytes = objectBytes(num_refs, payload_words);
    Addr cell = 0;

    switch (space) {
      case Space::MarkSweep: {
        unsigned cls = SizeClasses::classFor(bytes);
        if (cls >= SizeClasses::count) {
            space = Space::Los; // Too big: fall through to the LOS.
        } else {
            cell = popFreeCell(cls);
            bytesAllocated_ += SizeClasses::bytesFor(cls);
        }
        break;
      }
      case Space::Los:
      case Space::Immortal:
        break;
    }

    if (cell == 0 && space == Space::Los) {
        const Addr base = alignUp(losBump_, 16);
        fatal_if(base + bytes > losBase() + params_.losReserve,
                 "large object space exhausted");
        losBump_ = base + bytes;
        bytesAllocated_ += bytes;
        cell = base;
    } else if (cell == 0 && space == Space::Immortal) {
        const Addr base = alignUp(immortalBump_, 16);
        fatal_if(base + bytes >
                 immortalBase() + params_.immortalReserve,
                 "immortal space exhausted");
        immortalBump_ = base + bytes;
        bytesAllocated_ += bytes;
        cell = base;
    }

    const ObjRef ref =
        formatObject(cell, num_refs, payload_words, type_id, is_array);
    objects_.push_back({ref, cell, num_refs, payload_words, space});
    return ref;
}

void
Heap::setRef(ObjRef obj, std::uint32_t slot, ObjRef target)
{
    const std::uint32_t n = numRefs(obj);
    mem_.writeWord(ObjectModel::refSlotAddr(obj, n, slot), target);
}

ObjRef
Heap::getRef(ObjRef obj, std::uint32_t slot) const
{
    const std::uint32_t n = numRefs(obj);
    return mem_.readWord(ObjectModel::refSlotAddr(obj, n, slot));
}

std::uint32_t
Heap::numRefs(ObjRef obj) const
{
    return StatusWord::numRefs(mem_.readWord(obj));
}

void
Heap::addRoot(ObjRef ref)
{
    roots_.push_back(ref);
}

void
Heap::publishRoots()
{
    fatal_if(roots_.size() * wordBytes > HeapLayout::hwgcSpaceSize,
             "hwgc-space too small for %zu roots", roots_.size());
    for (std::size_t i = 0; i < roots_.size(); ++i) {
        mem_.writeWord(hwgcSpaceBase() + i * wordBytes, roots_[i]);
    }
    publishedRoots_ = roots_.size();
}

Addr
Heap::blockTableEntryAddr(std::size_t idx) const
{
    return BlockTableEntry::addr(blockTableBase(), idx);
}

std::unordered_set<ObjRef>
Heap::computeReachable() const
{
    std::unordered_set<ObjRef> reachable;
    std::deque<ObjRef> frontier;
    for (const ObjRef root : roots_) {
        if (root != nullRef && reachable.insert(root).second) {
            frontier.push_back(root);
        }
    }
    while (!frontier.empty()) {
        const ObjRef obj = frontier.front();
        frontier.pop_front();
        const std::uint32_t n = StatusWord::numRefs(mem_.readWord(obj));
        for (std::uint32_t i = 0; i < n; ++i) {
            const ObjRef target =
                mem_.readWord(ObjectModel::refSlotAddr(obj, n, i));
            if (target != nullRef && reachable.insert(target).second) {
                frontier.push_back(target);
            }
        }
    }
    return reachable;
}

void
Heap::clearAllMarks()
{
    for (const ObjInfo &obj : objects_) {
        const Word hdr = mem_.readWord(obj.ref);
        if (StatusWord::marked(hdr)) {
            mem_.writeWord(obj.ref, hdr & ~StatusWord::markBit);
        }
    }
}

std::uint64_t
Heap::countMarked() const
{
    std::uint64_t count = 0;
    for (const ObjInfo &obj : objects_) {
        if (StatusWord::marked(mem_.readWord(obj.ref))) {
            ++count;
        }
    }
    return count;
}

void
Heap::serialize(checkpoint::Archive &ar)
{
    // Parameter fingerprint first: a snapshot taken under different
    // heap geometry must fail loudly before any state parsing.
    HeapParams file = params_;
    ar(file.markSweepReserve, file.losReserve, file.immortalReserve,
       file.layout, file.useSuperpages, file.addrBase);
    if (ar.loading()) {
        fatal_if(file.markSweepReserve != params_.markSweepReserve ||
                 file.losReserve != params_.losReserve ||
                 file.immortalReserve != params_.immortalReserve ||
                 file.layout != params_.layout ||
                 file.useSuperpages != params_.useSuperpages ||
                 file.addrBase != params_.addrBase,
                 "heap snapshot '%s' was taken under different HeapParams",
                 ar.origin().c_str());
    }

    // The tables themselves travel with the PhysMem image; only the
    // bump allocator's count is runtime-side state.
    unsigned pages = pageTable_.pagesAllocated();
    ar(pages);
    if (ar.loading()) {
        pageTable_.restorePagesAllocated(pages);
    }

    ar(blocks_, classes_);
    if (ar.loading()) {
        for (const ClassState &state : classes_) {
            for (const std::size_t idx : state.blockIdx) {
                fatal_if(idx >= blocks_.size(),
                         "heap snapshot '%s': class block index %llu out "
                         "of range", ar.origin().c_str(),
                         (unsigned long long)idx);
            }
        }
    }
    ar(msBump_, losBump_, immortalBump_, roots_, publishedRoots_,
       objects_, bytesAllocated_, allocateBlack_);
}

std::uint64_t
Heap::onAfterSweep()
{
    // Must run after a sweep and *before* clearAllMarks(): LOS and
    // immortal objects are pruned by their (still-set) mark bits.
    std::uint64_t freed = 0;
    std::vector<ObjInfo> survivors;
    survivors.reserve(objects_.size());
    for (const ObjInfo &obj : objects_) {
        // A swept cell's start word became a free-list link (LSB 0).
        if (obj.space == Space::MarkSweep &&
            !CellStart::isLive(mem_.readWord(obj.cell))) {
            ++freed;
            continue;
        }
        // Unreachable LOS/immortal objects keep their storage (the
        // unit does not reclaim those spaces; JikesRVM manages them)
        // but leave the runtime's object table: letting the mutator
        // wire new edges to a dead object would resurrect dangling
        // references into reallocated MarkSweep cells.
        if (obj.space != Space::MarkSweep &&
            !StatusWord::marked(mem_.readWord(obj.ref))) {
            ++freed;
            continue;
        }
        survivors.push_back(obj);
    }
    objects_ = std::move(survivors);
    // Freed cells may be anywhere: restart every class's block scan.
    for (auto &state : classes_) {
        state.cursor = 0;
    }
    return freed;
}

} // namespace hwgc::runtime
