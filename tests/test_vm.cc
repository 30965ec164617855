/**
 * @file
 * Unit tests for virtual memory: page tables, TLBs and the blocking
 * page-table walker.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "mem/ideal_mem.h"
#include "mem/page_table.h"
#include "mem/ptw.h"
#include "mem/tlb.h"

namespace hwgc::mem
{
namespace
{

class PageTableTest : public testing::Test
{
  protected:
    PageTableTest() : table_(mem_, 0x10000, 4 << 20) {}

    PhysMem mem_;
    PageTable table_;
};

TEST_F(PageTableTest, IdentityMapTranslates)
{
    table_.map(0x4000'0000, 0x4000'0000, 4 * pageBytes);
    const auto pa = table_.translate(0x4000'1234);
    ASSERT_TRUE(pa.has_value());
    EXPECT_EQ(*pa, 0x4000'1234u);
}

TEST_F(PageTableTest, OffsetMapTranslates)
{
    table_.map(0x1000'0000, 0x2000'0000, pageBytes);
    EXPECT_EQ(table_.translate(0x1000'0abc).value(), 0x2000'0abcu);
}

TEST_F(PageTableTest, UnmappedReturnsNothing)
{
    table_.map(0x4000'0000, 0x4000'0000, pageBytes);
    EXPECT_FALSE(table_.translate(0x5000'0000).has_value());
    EXPECT_FALSE(table_.translate(0x4000'1000).has_value());
}

TEST_F(PageTableTest, WalkExposesThreeLevels)
{
    table_.map(0x4000'0000, 0x4000'0000, pageBytes);
    const auto walk = table_.walk(0x4000'0080);
    EXPECT_TRUE(walk.valid);
    EXPECT_EQ(walk.levels, ptLevels);
    EXPECT_EQ(walk.pa, 0x4000'0080u);
    // The outermost PTE lives in the root page.
    EXPECT_EQ(alignDown(walk.pteAddr[0], pageBytes), table_.root());
    // Distinct table pages per level.
    EXPECT_NE(alignDown(walk.pteAddr[1], pageBytes),
              alignDown(walk.pteAddr[0], pageBytes));
}

TEST_F(PageTableTest, WalkOnUnmappedStopsEarly)
{
    const auto walk = table_.walk(0x7000'0000);
    EXPECT_FALSE(walk.valid);
    EXPECT_EQ(walk.levels, 1u); // Root PTE invalid.
}

TEST_F(PageTableTest, AdjacentPagesShareLeafTable)
{
    table_.map(0x4000'0000, 0x4000'0000, 2 * pageBytes);
    const auto w1 = table_.walk(0x4000'0000);
    const auto w2 = table_.walk(0x4000'1000);
    EXPECT_EQ(alignDown(w1.pteAddr[2], pageBytes),
              alignDown(w2.pteAddr[2], pageBytes));
    EXPECT_EQ(w2.pteAddr[2] - w1.pteAddr[2], wordBytes);
}

TEST_F(PageTableTest, PageAllocationGrows)
{
    const unsigned before = table_.pagesAllocated();
    table_.map(0x4000'0000, 0x4000'0000, pageBytes);
    EXPECT_GT(table_.pagesAllocated(), before);
}

TEST(Tlb, HitAfterInsert)
{
    stats::Group owner("owner");
    TlbArray tlb(owner, "tlb", 4);
    EXPECT_FALSE(tlb.lookup(0x1000).has_value());
    tlb.insert(0x1000, 0x20000);
    const auto pa = tlb.lookup(0x1234);
    ASSERT_TRUE(pa.has_value());
    EXPECT_EQ(*pa, 0x20234u);
    EXPECT_EQ(tlb.hits(), 1u);
    EXPECT_EQ(tlb.misses(), 1u);
}

TEST(Tlb, LruEviction)
{
    stats::Group owner("owner");
    TlbArray tlb(owner, "tlb", 2);
    tlb.insert(0x1000, 0x1000);
    tlb.insert(0x2000, 0x2000);
    tlb.lookup(0x1000); // Touch: 0x2000 becomes LRU.
    tlb.insert(0x3000, 0x3000);
    EXPECT_TRUE(tlb.lookup(0x1000).has_value());
    EXPECT_FALSE(tlb.lookup(0x2000).has_value());
    EXPECT_TRUE(tlb.lookup(0x3000).has_value());
}

TEST(Tlb, Flush)
{
    stats::Group owner("owner");
    TlbArray tlb(owner, "tlb", 4);
    tlb.insert(0x1000, 0x1000);
    tlb.flush();
    EXPECT_FALSE(tlb.lookup(0x1000).has_value());
}

TEST(Tlb, ReinsertUpdatesMapping)
{
    stats::Group owner("owner");
    TlbArray tlb(owner, "tlb", 4);
    tlb.insert(0x1000, 0x1000);
    tlb.insert(0x1000, 0x9000);
    EXPECT_EQ(tlb.lookup(0x1000).value(), 0x9000u);
}

/** A TLB's complete saved state: entries, LRU stamps and stats. */
std::string
tlbImage(TlbArray &tlb)
{
    checkpoint::Serializer ser;
    checkpoint::Archive(ser).chunk("tlb", tlb);
    return ser.image();
}

TEST(Tlb, ReplayHitsMatchesRepeatedLookups)
{
    // Probe sequences of one and two lookups (the tracer's blocked
    // retries), including the same slot twice: after the replay the
    // LRU order, use counter and hit count equal the looped lookups'.
    const std::vector<std::vector<Addr>> sequences = {
        {0x3000}, {0x1000, 0x4000}, {0x2000, 0x2000}, {0x4000, 0x1000}};
    for (const auto &vas : sequences) {
        for (const std::uint64_t repeats : {1u, 2u, 7u}) {
            stats::Group owner("owner");
            TlbArray looped(owner, "looped", 4);
            TlbArray replayed(owner, "replayed", 4);
            for (TlbArray *tlb : {&looped, &replayed}) {
                for (Addr page = 0x1000; page <= 0x4000; page += 0x1000) {
                    tlb->insert(page, page + 0x10000);
                }
                tlb->lookup(0x2000);
            }
            std::vector<unsigned> slots;
            for (const Addr va : vas) {
                ASSERT_TRUE(replayed.lookup(va).has_value());
                slots.push_back(replayed.lastHitSlot());
            }
            for (std::uint64_t r = 0; r <= repeats; ++r) {
                for (const Addr va : vas) {
                    looped.lookup(va);
                }
            }
            replayed.replayHits(slots.data(), unsigned(slots.size()),
                                repeats);
            EXPECT_EQ(tlbImage(looped), tlbImage(replayed))
                << vas.size() << " probes x " << repeats;
            // The next eviction picks the same victim.
            looped.insert(0x9000, 0x9000);
            replayed.insert(0x9000, 0x9000);
            EXPECT_EQ(tlbImage(looped), tlbImage(replayed));
        }
    }
}

/** Records every walk completion delivered to its port. */
class RecordingResponder : public WalkResponder
{
  public:
    void
    onWalk(const WalkResult &walk, Tick now) override
    {
        walks.push_back(walk);
        deliveredAt.push_back(now);
    }

    std::vector<WalkResult> walks;
    std::vector<Tick> deliveredAt;
};

/** Fixture with a PTW wired through a bus to ideal memory. */
class PtwTest : public testing::Test
{
  protected:
    PtwTest()
        : table_(mem_, 0x10000, 4 << 20),
          ideal_("mem", IdealMemParams{}, mem_),
          bus_("bus", InterconnectParams{}, ideal_)
    {
        table_.map(0x4000'0000, 0x4000'0000, 16 * pageBytes);
        ptw_ = std::make_unique<Ptw>("ptw", PtwParams{}, table_,
                                     makePort());
        bus_.setClientResponder(portId_, ptw_.get());
        ptwPort_ = ptw_->registerRequester(responder_, "test");
    }

    MemPort *
    makePort()
    {
        port_ = std::make_unique<BusPort>(bus_, nullptr, "ptw");
        portId_ = port_->clientId();
        return port_.get();
    }

    void
    run(Tick cycles)
    {
        for (Tick t = 0; t < cycles; ++t) {
            ptw_->tick(now_);
            bus_.tick(now_);
            ideal_.tick(now_);
            ++now_;
        }
    }

    PhysMem mem_;
    PageTable table_;
    IdealMem ideal_;
    Interconnect bus_;
    std::unique_ptr<BusPort> port_;
    unsigned portId_ = 0;
    std::unique_ptr<Ptw> ptw_;
    RecordingResponder responder_;
    unsigned ptwPort_ = 0;
    Tick now_ = 0;
};

TEST_F(PtwTest, WalkResolves)
{
    ptw_->requestWalk(ptwPort_, 0x4000'2abc, now_);
    run(200);
    ASSERT_EQ(responder_.walks.size(), 1u);
    EXPECT_TRUE(responder_.walks[0].valid);
    EXPECT_EQ(responder_.walks[0].pa, 0x4000'2abcu);
    EXPECT_EQ(ptw_->walksStarted(), 1u);
    EXPECT_EQ(ptw_->pteFetches(), ptLevels);
}

TEST_F(PtwTest, UnmappedWalkReportsInvalid)
{
    ptw_->requestWalk(ptwPort_, 0x7000'0000, now_);
    run(200);
    ASSERT_EQ(responder_.walks.size(), 1u);
    EXPECT_FALSE(responder_.walks[0].valid);
    EXPECT_EQ(responder_.walks[0].va, 0x7000'0000u);
}

TEST_F(PtwTest, L2TlbShortcutsRepeatWalks)
{
    ptw_->requestWalk(ptwPort_, 0x4000'3000, now_);
    run(200);
    const auto pte_fetches = ptw_->pteFetches();
    ptw_->requestWalk(ptwPort_, 0x4000'3008, now_);
    run(200);
    EXPECT_EQ(responder_.walks.size(), 2u);
    EXPECT_EQ(ptw_->pteFetches(), pte_fetches); // No new PTE reads.
    EXPECT_EQ(ptw_->l2TlbHits(), 1u);
}

TEST_F(PtwTest, WalksSerialize)
{
    // Two walks to distinct pages: the second completes after the
    // first (blocking walker). Tokens tell the completions apart.
    ptw_->requestWalk(ptwPort_, 0x4000'4000, now_, 1);
    ptw_->requestWalk(ptwPort_, 0x4000'5000, now_, 2);
    run(500);
    ASSERT_EQ(responder_.walks.size(), 2u);
    EXPECT_EQ(responder_.walks[0].token, 1u);
    EXPECT_EQ(responder_.walks[1].token, 2u);
    const Tick first_done = responder_.deliveredAt[0];
    const Tick second_done = responder_.deliveredAt[1];
    EXPECT_GT(first_done, 0u);
    EXPECT_GT(second_done, first_done);
}

TEST_F(PtwTest, QueueCapacityIsEnforced)
{
    unsigned accepted = 0;
    while (ptw_->canRequest(ptwPort_)) {
        ptw_->requestWalk(ptwPort_,
                          0x4000'0000 + Addr(accepted) * pageBytes, now_);
        ++accepted;
    }
    EXPECT_EQ(accepted, PtwParams{}.queueDepth);
    run(5000);
    EXPECT_TRUE(ptw_->canRequest(ptwPort_));
    EXPECT_FALSE(ptw_->busy());
}

} // namespace
} // namespace hwgc::mem
