/**
 * @file
 * Tests for 2 MiB superpage support (paper §VII: "large heaps could
 * use superpages instead of 4KB pages").
 */

#include <gtest/gtest.h>

#include "core/hwgc_device.h"
#include "gc/verifier.h"
#include "mem/page_table.h"
#include "mem/tlb.h"
#include "workload/graph_gen.h"

namespace hwgc
{
namespace
{

constexpr std::uint64_t superBytes = 2ULL << 20;

TEST(Superpages, MapSuperTranslates)
{
    mem::PhysMem mem;
    mem::PageTable table(mem, 0x10000, 4 << 20);
    table.mapSuper(0x4000'0000, 0x4000'0000, 2 * superBytes);
    EXPECT_EQ(table.translate(0x4000'0000).value(), 0x4000'0000u);
    EXPECT_EQ(table.translate(0x4012'3456).value(), 0x4012'3456u);
    EXPECT_FALSE(table.translate(0x4040'0000).has_value());
}

TEST(Superpages, WalkStopsAtLevelOne)
{
    mem::PhysMem mem;
    mem::PageTable table(mem, 0x10000, 4 << 20);
    table.mapSuper(0x4000'0000, 0x4000'0000, superBytes);
    const auto walk = table.walk(0x4000'1234);
    EXPECT_TRUE(walk.valid);
    EXPECT_EQ(walk.levels, mem::ptLevels - 1); // One fewer PTE fetch.
    EXPECT_EQ(walk.pageBits, 21u);
    EXPECT_EQ(walk.pa, 0x4000'1234u);
}

TEST(Superpages, FewerTablePagesThanBasePages)
{
    mem::PhysMem mem;
    mem::PageTable small(mem, 0x10000, 8 << 20);
    small.map(0x4000'0000, 0x4000'0000, 8 * superBytes);
    mem::PhysMem mem2;
    mem::PageTable super(mem2, 0x10000, 8 << 20);
    super.mapSuper(0x4000'0000, 0x4000'0000, 8 * superBytes);
    EXPECT_LT(super.pagesAllocated(), small.pagesAllocated());
}

TEST(Superpages, TlbEntryCoversWholeSuperpage)
{
    stats::Group owner("owner");
    mem::TlbArray tlb(owner, "tlb", 2);
    tlb.insert(0x4000'0000, 0x4000'0000, 21);
    // Any address within the 2 MiB page hits the single entry.
    EXPECT_EQ(tlb.lookup(0x401f'ff00).value(), 0x401f'ff00u);
    EXPECT_EQ(tlb.lookup(0x4000'0008).value(), 0x4000'0008u);
    EXPECT_FALSE(tlb.lookup(0x4020'0000).has_value());
    EXPECT_EQ(tlb.hits(), 2u);
}

TEST(Superpages, MixedPageSizesCoexistInTlb)
{
    stats::Group owner("owner");
    mem::TlbArray tlb(owner, "tlb", 4);
    tlb.insert(0x4000'0000, 0x4000'0000, 21);
    tlb.insert(0x5000'0000, 0x6000'0000, 12);
    EXPECT_EQ(tlb.lookup(0x4010'0000).value(), 0x4010'0000u);
    EXPECT_EQ(tlb.lookup(0x5000'0abc).value(), 0x6000'0abcu);
    EXPECT_FALSE(tlb.lookup(0x5000'1000).has_value()); // 4K reach.
}

TEST(Superpages, HeapMapsAndCollectsCorrectly)
{
    mem::PhysMem mem;
    runtime::HeapParams heap_params;
    heap_params.useSuperpages = true;
    runtime::Heap heap(mem, heap_params);
    workload::GraphParams graph;
    graph.liveObjects = 1500;
    graph.garbageObjects = 800;
    graph.seed = 31;
    workload::GraphBuilder builder(heap, graph);
    builder.build();
    heap.clearAllMarks();
    heap.publishRoots();

    core::HwgcDevice device(mem, heap.pageTable(), core::HwgcConfig{});
    device.configure(heap);
    device.collect();

    const auto marks = gc::verifyMarks(heap);
    EXPECT_TRUE(marks.ok) << marks.error;
    const auto swept = gc::verifySweptHeap(heap);
    EXPECT_TRUE(swept.ok) << swept.error;
}

TEST(Superpages, ReduceWalkTraffic)
{
    auto walks_with = [](bool superpages) {
        mem::PhysMem mem;
        runtime::HeapParams heap_params;
        heap_params.useSuperpages = superpages;
        runtime::Heap heap(mem, heap_params);
        workload::GraphParams graph;
        graph.liveObjects = 4000;
        graph.garbageObjects = 2000;
        graph.seed = 32;
        workload::GraphBuilder builder(heap, graph);
        builder.build();
        heap.clearAllMarks();
        heap.publishRoots();
        core::HwgcDevice device(mem, heap.pageTable(),
                                core::HwgcConfig{});
        device.configure(heap);
        device.runMark();
        return device.ptw().walksStarted();
    };
    EXPECT_LT(walks_with(true), walks_with(false) / 4);
}

TEST(SuperpagesDeathTest, MisalignedMapSuperPanics)
{
    mem::PhysMem mem;
    mem::PageTable table(mem, 0x10000, 4 << 20);
    EXPECT_DEATH(table.mapSuper(0x4000'1000, 0x4000'1000, superBytes),
                 "superpage aligned");
}

} // namespace
} // namespace hwgc
