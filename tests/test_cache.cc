/**
 * @file
 * Unit tests for the tag array, the atomic cache hierarchy and the
 * timed multi-ported cache.
 */

#include <gtest/gtest.h>

#include "mem/atomic_cache.h"
#include "mem/ideal_mem.h"
#include "mem/timed_cache.h"

namespace hwgc::mem
{
namespace
{

TEST(CacheTags, HitAfterInsert)
{
    CacheTags tags(1024, 2);
    EXPECT_FALSE(tags.access(0x1000));
    tags.insert(0x1000);
    EXPECT_TRUE(tags.access(0x1000));
    EXPECT_TRUE(tags.access(0x1038)); // Same 64B line.
    EXPECT_FALSE(tags.access(0x1040)); // Next line.
}

TEST(CacheTags, LruEviction)
{
    // 2 sets x 2 ways of 64B lines = 256 bytes.
    CacheTags tags(256, 2);
    // Three lines mapping to set 0 (stride = 2 * 64).
    tags.insert(0x0);
    tags.insert(0x80);
    EXPECT_TRUE(tags.access(0x0)); // Touch: 0x80 becomes LRU.
    const auto victim = tags.insert(0x100);
    EXPECT_TRUE(victim.valid);
    EXPECT_EQ(victim.lineAddr, 0x80u);
    EXPECT_TRUE(tags.access(0x0));
    EXPECT_FALSE(tags.access(0x80));
}

TEST(CacheTags, DirtyVictim)
{
    CacheTags tags(256, 2);
    tags.insert(0x0);
    EXPECT_TRUE(tags.markDirty(0x0));
    EXPECT_FALSE(tags.markDirty(0x4000)); // Absent.
    // Direct-mapped 256B cache: 4 sets, so lines 0x0 and 0x100 share
    // set 0; evicting a dirty line surfaces its dirtiness.
    CacheTags t2(256, 1);
    t2.insert(0x0, true);
    const auto v = t2.insert(0x100);
    EXPECT_TRUE(v.valid);
    EXPECT_TRUE(v.dirty);
    EXPECT_EQ(v.lineAddr, 0x0u);
}

TEST(CacheTags, ProbeDoesNotTouchLru)
{
    CacheTags tags(256, 2);
    tags.insert(0x0);
    tags.insert(0x80);
    EXPECT_TRUE(tags.probe(0x0)); // No LRU update: 0x0 stays LRU.
    const auto victim = tags.insert(0x100);
    EXPECT_EQ(victim.lineAddr, 0x0u);
}

TEST(CacheTags, Flush)
{
    CacheTags tags(1024, 2);
    tags.insert(0x1000);
    tags.flush();
    EXPECT_FALSE(tags.access(0x1000));
}

TEST(CacheTagsDeathTest, BadGeometry)
{
    EXPECT_DEATH(CacheTags(100, 3), "power of two");
}

class AtomicCacheTest : public testing::Test
{
  protected:
    AtomicCacheTest() : ideal_("mem", idealParams(), mem_) {}

    static IdealMemParams
    idealParams()
    {
        IdealMemParams p;
        p.latency = 50;
        p.perRequestOverhead = 0;
        return p;
    }

    PhysMem mem_;
    IdealMem ideal_;
    stats::Group owner_{"core"}; //!< The caches' groups nest in it.
};

TEST_F(AtomicCacheTest, MissThenHit)
{
    AtomicCache cache(owner_, "l1", {1024, 2, 2}, nullptr, &ideal_);
    const Tick miss = cache.access(0x1000, 8, false, 0);
    const Tick hit = cache.access(0x1008, 8, false, 1000);
    EXPECT_GT(miss, 50u);
    EXPECT_EQ(hit, 2u);
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(cache.misses(), 1u);
}

TEST_F(AtomicCacheTest, TwoLevelHierarchy)
{
    AtomicCache l2(owner_, "l2", {4096, 4, 12}, nullptr, &ideal_);
    AtomicCache l1(owner_, "l1", {1024, 2, 2}, &l2, nullptr);
    const Tick cold = l1.access(0x2000, 8, false, 0);
    EXPECT_GT(cold, 12u); // Paid L2 + memory.
    // Evict 0x2000 from the 2-way L1 set without exceeding the 4-way
    // L2 set (set-conflict stride of the 1 KiB L1 is 1024).
    l1.access(0x2000 + 1024, 8, false, 1000);
    l1.access(0x2000 + 2048, 8, false, 2000);
    const Tick l2_hit = l1.access(0x2000, 8, false, 50000);
    EXPECT_GE(l2_hit, 12u);
    EXPECT_LT(l2_hit, cold);
}

TEST_F(AtomicCacheTest, DirtyEvictionChargesDownstreamTraffic)
{
    AtomicCache cache(owner_, "l1", {128, 1, 2}, nullptr, &ideal_);
    cache.access(0x0, 8, true, 0); // Dirty line in set 0.
    const auto before = ideal_.bytesMoved().value();
    cache.access(0x80, 8, false, 1000); // Evicts dirty 0x0.
    const auto moved = ideal_.bytesMoved().value() - before;
    EXPECT_EQ(moved, 2u * lineBytes); // Write-back + fill.
    EXPECT_EQ(cache.writebacks(), 1u);
}

TEST_F(AtomicCacheTest, MultiLineAccessTouchesAllLines)
{
    AtomicCache cache(owner_, "l1", {4096, 4, 2}, nullptr, &ideal_);
    cache.access(0x1000, 8, false, 0);
    // A 64B access starting mid-line spans two lines.
    cache.access(0x1020, 64, false, 1000);
    EXPECT_TRUE(cache.hits() >= 1);
    EXPECT_EQ(cache.misses(), 2u); // 0x1000 line + 0x1040 line.
}

TEST_F(AtomicCacheTest, FlushForcesMisses)
{
    AtomicCache cache(owner_, "l1", {1024, 2, 2}, nullptr, &ideal_);
    cache.access(0x1000, 8, false, 0);
    cache.flush();
    cache.access(0x1000, 8, false, 1000);
    EXPECT_EQ(cache.misses(), 2u);
}

/** Fixture wiring a timed cache to an ideal memory via a bus. */
class TimedCacheTest : public testing::Test
{
  protected:
    TimedCacheTest()
        : ideal_("mem", IdealMemParams{}, mem_),
          bus_("bus", InterconnectParams{}, ideal_),
          cache_("cache", TimedCacheParams{1024, 2, 2, 2, 4, 8}, mem_,
                 bus_)
    {
    }

    void
    run(Tick cycles)
    {
        for (Tick t = 0; t < cycles; ++t) {
            cache_.tick(now_);
            bus_.tick(now_);
            ideal_.tick(now_);
            ++now_;
        }
    }

    PhysMem mem_;
    IdealMem ideal_;
    Interconnect bus_;
    TimedCache cache_;
    Tick now_ = 0;
};

class Collector : public MemResponder
{
  public:
    void
    onResponse(const MemResponse &resp, Tick now) override
    {
        responses.push_back(resp);
        lastTick = now;
    }

    std::vector<MemResponse> responses;
    Tick lastTick = 0;
};

TEST_F(TimedCacheTest, MissFillsThenHits)
{
    Collector c;
    MemPort *port = cache_.addPort(&c, "p");
    mem_.writeWord(0x1000, 5);

    MemRequest req;
    req.paddr = 0x1000;
    req.size = 8;
    req.op = Op::Read;
    port->send(req, now_);
    run(100);
    ASSERT_EQ(c.responses.size(), 1u);
    EXPECT_EQ(c.responses[0].rdata[0], 5u);
    EXPECT_EQ(cache_.misses(), 1u);

    const Tick before = now_;
    port->send(req, now_);
    run(20);
    ASSERT_EQ(c.responses.size(), 2u);
    EXPECT_EQ(cache_.hits(), 1u);
    EXPECT_LE(c.lastTick - before, 10u);
}

TEST_F(TimedCacheTest, WritesExecuteFunctionally)
{
    Collector c;
    MemPort *port = cache_.addPort(&c, "p");
    MemRequest req;
    req.paddr = 0x2000;
    req.size = 8;
    req.op = Op::Write;
    req.wdata[0] = 321;
    port->send(req, now_);
    run(100);
    EXPECT_EQ(mem_.readWord(0x2000), 321u);
}

TEST_F(TimedCacheTest, MshrMergesSameLine)
{
    Collector c;
    MemPort *port = cache_.addPort(&c, "p");
    MemRequest a;
    a.paddr = 0x3000;
    a.size = 8;
    a.op = Op::Read;
    MemRequest b = a;
    b.paddr = 0x3008; // Same line.
    port->send(a, now_);
    port->send(b, now_);
    run(100);
    EXPECT_EQ(c.responses.size(), 2u);
    EXPECT_EQ(cache_.misses(), 1u); // One fill served both.
}

TEST_F(TimedCacheTest, PortStatsTrackRequests)
{
    Collector c;
    MemPort *p0 = cache_.addPort(&c, "alpha");
    MemPort *p1 = cache_.addPort(&c, "beta");
    MemRequest req;
    req.paddr = 0x4000;
    req.size = 8;
    req.op = Op::Read;
    p0->send(req, now_);
    p0->send(req, now_);
    p1->send(req, now_);
    run(100);
    EXPECT_EQ(cache_.portRequests(0), 2u);
    EXPECT_EQ(cache_.portRequests(1), 1u);
    EXPECT_EQ(cache_.portLabel(0), "alpha");
}

TEST_F(TimedCacheTest, DirtyEvictionEmitsWriteback)
{
    Collector c;
    MemPort *port = cache_.addPort(&c, "p");
    // Dirty a line, then march over its set to evict it (2 ways,
    // 8 sets for 1024B/2-way; set stride = 8 * 64 = 512).
    MemRequest w;
    w.paddr = 0x0;
    w.size = 8;
    w.op = Op::Write;
    w.wdata[0] = 1;
    port->send(w, now_);
    run(50);
    for (Addr a = 512; a <= 1024; a += 512) {
        MemRequest r;
        r.paddr = a;
        r.size = 8;
        r.op = Op::Read;
        port->send(r, now_);
        run(50);
    }
    EXPECT_EQ(cache_.writebacks(), 1u);
    run(200);
    EXPECT_FALSE(cache_.busy());
}

} // namespace
} // namespace hwgc::mem
