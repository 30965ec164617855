/**
 * @file
 * Edge-case and failure-injection tests for the whole stack: trivial
 * heaps, degenerate root sets, maximal objects, and the error paths
 * that must fail loudly rather than corrupt the heap.
 */

#include <gtest/gtest.h>

#include "core/hwgc_device.h"
#include "cpu/core_model.h"
#include "gc/sw_collector.h"
#include "gc/verifier.h"
#include "mem/dram.h"
#include "runtime/heap_layout.h"

namespace hwgc
{
namespace
{

using runtime::HeapLayout;
using runtime::ObjRef;
using runtime::Space;
using runtime::StatusWord;

struct MiniRig
{
    MiniRig() : heap(mem) {}

    void
    runHw()
    {
        heap.publishRoots();
        device = std::make_unique<core::HwgcDevice>(
            mem, heap.pageTable(), core::HwgcConfig{});
        device->configure(heap);
        device->collect();
    }

    void
    runSw()
    {
        heap.publishRoots();
        dram = std::make_unique<mem::Dram>("d", mem::DramParams{}, mem);
        core = std::make_unique<cpu::CoreModel>(
            "c", cpu::CoreParams{}, mem, heap.pageTable(), *dram);
        collector = std::make_unique<gc::SwCollector>(heap, *core);
        collector->collect();
    }

    mem::PhysMem mem;
    runtime::Heap heap;
    std::unique_ptr<core::HwgcDevice> device;
    std::unique_ptr<mem::Dram> dram;
    std::unique_ptr<cpu::CoreModel> core;
    std::unique_ptr<gc::SwCollector> collector;
};

TEST(EdgeCases, EmptyHeapNoRoots)
{
    MiniRig rig;
    rig.heap.allocate(0, 0); // One garbage object, zero roots.
    rig.runHw();
    EXPECT_EQ(rig.heap.countMarked(), 0u);
    const auto swept = gc::verifySweptHeap(rig.heap);
    EXPECT_TRUE(swept.ok) << swept.error;
    EXPECT_EQ(rig.heap.onAfterSweep(), 1u);
}

TEST(EdgeCases, SingleRootObject)
{
    MiniRig rig;
    const ObjRef obj = rig.heap.allocate(0, 2);
    rig.heap.addRoot(obj);
    rig.runHw();
    EXPECT_EQ(rig.heap.countMarked(), 1u);
    EXPECT_EQ(rig.heap.onAfterSweep(), 0u);
}

TEST(EdgeCases, DuplicateRoots)
{
    MiniRig rig;
    const ObjRef obj = rig.heap.allocate(1, 0);
    for (int i = 0; i < 9; ++i) {
        rig.heap.addRoot(obj); // Root count not a multiple of 8.
    }
    rig.runHw();
    EXPECT_EQ(rig.heap.countMarked(), 1u);
}

TEST(EdgeCases, NullRootsInTheRegion)
{
    MiniRig rig;
    const ObjRef obj = rig.heap.allocate(0, 0);
    rig.heap.addRoot(runtime::nullRef);
    rig.heap.addRoot(obj);
    rig.heap.addRoot(runtime::nullRef);
    rig.runHw();
    EXPECT_EQ(rig.heap.countMarked(), 1u);
}

TEST(EdgeCases, SelfReferencingObject)
{
    MiniRig rig;
    const ObjRef obj = rig.heap.allocate(1, 0);
    rig.heap.setRef(obj, 0, obj);
    rig.heap.addRoot(obj);
    rig.runHw();
    EXPECT_EQ(rig.heap.countMarked(), 1u);
}

TEST(EdgeCases, MaximalArrayInLos)
{
    MiniRig rig;
    // Bigger than the largest size class: lands in the LOS but is
    // traced like any object.
    const ObjRef big = rig.heap.allocate(3000, 0, Space::MarkSweep,
                                         0, true);
    EXPECT_GE(big, HeapLayout::losBase);
    const ObjRef child = rig.heap.allocate(0, 0);
    rig.heap.setRef(big, 2999, child);
    rig.heap.addRoot(big);
    rig.runHw();
    EXPECT_TRUE(StatusWord::marked(rig.heap.read(child)));
}

TEST(EdgeCases, DeepChainDoesNotOverflowAnything)
{
    MiniRig rig;
    ObjRef head = rig.heap.allocate(1, 0);
    rig.heap.addRoot(head);
    ObjRef tail = head;
    for (int i = 0; i < 20000; ++i) {
        const ObjRef next = rig.heap.allocate(1, 0);
        rig.heap.setRef(tail, 0, next);
        tail = next;
    }
    rig.runHw();
    EXPECT_EQ(rig.heap.countMarked(), 20001u);
    const auto marks = gc::verifyMarks(rig.heap);
    EXPECT_TRUE(marks.ok) << marks.error;
}

TEST(EdgeCases, WideFanoutObject)
{
    MiniRig rig;
    const unsigned fan = 900;
    const ObjRef hub = rig.heap.allocate(fan, 0, Space::MarkSweep, 0,
                                         true);
    for (unsigned i = 0; i < fan; ++i) {
        rig.heap.setRef(hub, i, rig.heap.allocate(0, 0));
    }
    rig.heap.addRoot(hub);
    rig.runHw();
    EXPECT_EQ(rig.heap.countMarked(), fan + 1u);
}

TEST(EdgeCases, SwHandlesTheSameEdgeCases)
{
    MiniRig rig;
    const ObjRef obj = rig.heap.allocate(1, 0);
    rig.heap.setRef(obj, 0, obj);
    rig.heap.addRoot(obj);
    rig.heap.addRoot(runtime::nullRef);
    rig.runSw();
    EXPECT_EQ(rig.heap.countMarked(), 1u);
    const auto swept = gc::verifySweptHeap(rig.heap);
    EXPECT_TRUE(swept.ok) << swept.error;
}

TEST(EdgeCases, RerunAfterFullReclaim)
{
    // Collect a heap down to nothing, then allocate and collect again.
    MiniRig rig;
    rig.heap.allocate(2, 2);
    rig.heap.allocate(0, 1);
    rig.runHw();
    EXPECT_EQ(rig.heap.onAfterSweep(), 2u);

    const ObjRef obj = rig.heap.allocate(0, 0);
    rig.heap.addRoot(obj);
    rig.heap.clearAllMarks();
    rig.heap.publishRoots();
    rig.device->resetPhaseState();
    rig.device->resetStats();
    rig.device->configure(rig.heap);
    rig.device->collect();
    EXPECT_EQ(rig.heap.countMarked(), 1u);
}

TEST(EdgeCasesDeathTest, UnmappedReferenceIsFatal)
{
    // A corrupted reference outside any mapped region must be caught
    // by the unit's PTW, not silently mistranslated.
    MiniRig rig;
    const ObjRef obj = rig.heap.allocate(1, 0);
    rig.heap.setRef(obj, 0, 0x7abc'def0);
    rig.heap.addRoot(obj);
    rig.heap.publishRoots();
    core::HwgcDevice device(rig.mem, rig.heap.pageTable(),
                            core::HwgcConfig{});
    device.configure(rig.heap);
    EXPECT_EXIT(device.runMark(), testing::ExitedWithCode(1),
                "unmapped");
}

TEST(EdgeCasesDeathTest, MarkingAFreeCellIsFatal)
{
    // A dangling reference to a freed cell must trip the marker's
    // live-header check.
    MiniRig rig;
    const ObjRef holder = rig.heap.allocate(1, 0);
    const ObjRef victim = rig.heap.allocate(0, 0);
    rig.heap.setRef(holder, 0, victim);
    rig.heap.addRoot(holder);
    // Corrupt: free the victim's cell behind the runtime's back.
    rig.heap.write(runtime::ObjectModel::cellFromRef(victim, 0),
                   runtime::CellStart::makeFree(0));
    rig.heap.write(victim, 0); // Dead status word.
    rig.heap.publishRoots();
    core::HwgcDevice device(rig.mem, rig.heap.pageTable(),
                            core::HwgcConfig{});
    device.configure(rig.heap);
    EXPECT_DEATH(device.runMark(), "non-live header");
}

TEST(HwgcConfigDeathTest, RejectsUnusableUnitsNamingTheField)
{
    // One below each field's minimum is fatal where the configuration
    // enters (the Soc every device builds or joins), naming the field
    // and the minimum, instead of panicking inside a component
    // constructor or running a phase into its cycle budget. The
    // minimum itself is accepted.
    struct Case
    {
        const char *field;
        unsigned core::HwgcConfig::*member;
        unsigned least;
    };
    using C = core::HwgcConfig;
    for (const Case &c :
         {Case{"numSweepers", &C::numSweepers, 1},
          Case{"tracerPendingRefs", &C::tracerPendingRefs, 1},
          Case{"markerSlots", &C::markerSlots, 1},
          Case{"spillQueueEntries", &C::spillQueueEntries, 8},
          Case{"tracerQueueEntries", &C::tracerQueueEntries, 1},
          Case{"unitTlbEntries", &C::unitTlbEntries, 1},
          Case{"sweeperTlbEntries", &C::sweeperTlbEntries, 1}}) {
        MiniRig rig;
        C config;
        config.*c.member = c.least - 1;
        EXPECT_EXIT(
            core::HwgcDevice(rig.mem, rig.heap.pageTable(), config),
            testing::ExitedWithCode(1),
            std::string(c.field) + " is " + std::to_string(c.least - 1) +
                ", want at least " + std::to_string(c.least))
            << c.field;
        config.*c.member = c.least;
        core::HwgcDevice accepted(rig.mem, rig.heap.pageTable(), config);
    }
}

} // namespace
} // namespace hwgc
