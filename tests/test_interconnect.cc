/**
 * @file
 * Unit tests for the interconnect and the ideal memory pipe.
 */

#include <gtest/gtest.h>

#include <limits>

#include "mem/ideal_mem.h"
#include "mem/interconnect.h"
#include "mem/port.h"

namespace hwgc::mem
{
namespace
{

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

MemRequest
read(Addr addr, unsigned size = 8)
{
    MemRequest req;
    req.paddr = addr;
    req.size = size;
    req.op = Op::Read;
    return req;
}

class BusTest : public testing::Test
{
  protected:
    BusTest()
        : mem_(), ideal_("ideal", IdealMemParams{}, mem_),
          bus_("bus", InterconnectParams{}, ideal_)
    {
    }

    void
    run(Tick cycles)
    {
        for (Tick t = 0; t < cycles; ++t) {
            bus_.tick(now_);
            ideal_.tick(now_);
            ++now_;
        }
    }

    PhysMem mem_;
    IdealMem ideal_;
    Interconnect bus_;
    Tick now_ = 0;
};

TEST_F(BusTest, RequestResponseRoundTrip)
{
    Collector c;
    const unsigned id = bus_.registerClient(&c, "c");
    mem_.writeWord(0x100, 42);
    MemRequest req = read(0x100);
    req.client = id;
    req.tag = 7;
    bus_.sendRequest(req, now_);
    run(100);
    ASSERT_EQ(c.responses.size(), 1u);
    EXPECT_EQ(c.responses[0].rdata[0], 42u);
    EXPECT_EQ(c.responses[0].req.tag, 7u);
}

TEST_F(BusTest, ResponsesRoutedByClient)
{
    Collector c1, c2;
    const unsigned id1 = bus_.registerClient(&c1, "c1");
    const unsigned id2 = bus_.registerClient(&c2, "c2");
    MemRequest r1 = read(0x100);
    r1.client = id1;
    MemRequest r2 = read(0x200);
    r2.client = id2;
    bus_.sendRequest(r1, now_);
    bus_.sendRequest(r2, now_);
    run(100);
    EXPECT_EQ(c1.responses.size(), 1u);
    EXPECT_EQ(c2.responses.size(), 1u);
}

TEST_F(BusTest, PerClientQueueBackpressure)
{
    Collector c;
    const unsigned id = bus_.registerClient(&c, "c");
    unsigned sent = 0;
    while (bus_.canAccept(id)) {
        MemRequest req = read(Addr(sent) * 64);
        req.client = id;
        bus_.sendRequest(req, now_);
        ++sent;
    }
    EXPECT_EQ(sent, InterconnectParams{}.clientQueueDepth);
    run(200);
    EXPECT_EQ(c.responses.size(), sent);
    EXPECT_TRUE(bus_.canAccept(id));
}

TEST_F(BusTest, RoundRobinIsFair)
{
    Collector c1, c2;
    const unsigned id1 = bus_.registerClient(&c1, "c1");
    const unsigned id2 = bus_.registerClient(&c2, "c2");
    // Saturate both clients; each should make progress.
    for (int round = 0; round < 20; ++round) {
        if (bus_.canAccept(id1)) {
            MemRequest req = read(0x1000);
            req.client = id1;
            bus_.sendRequest(req, now_);
        }
        if (bus_.canAccept(id2)) {
            MemRequest req = read(0x2000);
            req.client = id2;
            bus_.sendRequest(req, now_);
        }
        run(5);
    }
    run(500);
    EXPECT_GT(c1.responses.size(), 5u);
    EXPECT_GT(c2.responses.size(), 5u);
    const auto diff = std::max(c1.responses.size(), c2.responses.size()) -
        std::min(c1.responses.size(), c2.responses.size());
    EXPECT_LE(diff, 2u);
}

TEST_F(BusTest, PerClientStats)
{
    Collector c;
    const unsigned id = bus_.registerClient(&c, "stats-client");
    MemRequest req = read(0x0, 64);
    req.client = id;
    bus_.sendRequest(req, now_);
    run(100);
    EXPECT_EQ(bus_.clientRequests(id), 1u);
    EXPECT_EQ(bus_.clientBytes(id), 64u);
    EXPECT_EQ(bus_.clientLabel(id), "stats-client");
    bus_.resetStats();
    EXPECT_EQ(bus_.clientRequests(id), 0u);
}

TEST_F(BusTest, BusPortWrapsClient)
{
    Collector c;
    BusPort port(bus_, &c, "port");
    mem_.writeWord(0x300, 9);
    MemRequest req = read(0x300);
    ASSERT_TRUE(port.canSend());
    port.send(req, now_);
    run(100);
    ASSERT_EQ(c.responses.size(), 1u);
    EXPECT_EQ(c.responses[0].rdata[0], 9u);
}

TEST_F(BusTest, NullResponderDiscardsResponses)
{
    const unsigned id = bus_.registerClient(nullptr, "writeonly");
    MemRequest req = read(0x100);
    req.client = id;
    bus_.sendRequest(req, now_);
    run(100); // Must not crash.
    EXPECT_FALSE(bus_.busy());
}

TEST_F(BusTest, SetClientResponderRewires)
{
    Collector c;
    const unsigned id = bus_.registerClient(nullptr, "late");
    bus_.setClientResponder(id, &c);
    MemRequest req = read(0x100);
    req.client = id;
    bus_.sendRequest(req, now_);
    run(100);
    EXPECT_EQ(c.responses.size(), 1u);
}

TEST(BusDeathTest, InvalidTransferPanics)
{
    PhysMem mem;
    IdealMem ideal("ideal", IdealMemParams{}, mem);
    Interconnect bus("bus", InterconnectParams{}, ideal);
    Collector c;
    const unsigned id = bus.registerClient(&c, "c");
    MemRequest req;
    req.paddr = 0x1004; // Misaligned.
    req.size = 8;
    req.client = id;
    EXPECT_DEATH(bus.sendRequest(req, 0), "invalid transfer");
}

TEST(BusDeathTest, RejectsABadThrottleRateNamingTheField)
{
    // Each of these used to run unthrottled (negative, NaN) or round
    // to a zero rate that starves the bus forever (1e-30).
    PhysMem mem;
    IdealMem ideal("ideal", IdealMemParams{}, mem);
    for (const double rate :
         {-1.0, std::numeric_limits<double>::quiet_NaN(),
          std::numeric_limits<double>::infinity(), 1e-30}) {
        InterconnectParams params;
        params.throttleBytesPerCycle = rate;
        EXPECT_EXIT(Interconnect("bus", params, ideal),
                    ::testing::ExitedWithCode(1),
                    "throttleBytesPerCycle .* is not a bandwidth")
            << rate;
    }
}

TEST(IdealMem, LatencyAndBandwidth)
{
    PhysMem mem;
    IdealMemParams params;
    params.perRequestOverhead = 0;
    IdealMem ideal("i", params, mem);
    std::array<Word, maxReqWords> scratch{};
    // 64B at 8 B/cycle: latency 1 + 8 cycles of bus.
    const Tick t = ideal.accessAtomic(read(0x0, 64), 0, scratch);
    EXPECT_EQ(t, 9u);
    // Immediately following request queues behind the bus.
    const Tick t2 = ideal.accessAtomic(read(0x1000, 8), 0, scratch);
    EXPECT_GT(t2, 9u);
}

TEST(IdealMem, PerRequestOverheadSlowsSmallRequests)
{
    PhysMem mem;
    IdealMemParams with;
    with.perRequestOverhead = 4;
    IdealMemParams without;
    without.perRequestOverhead = 0;
    IdealMem a("a", with, mem), b("b", without, mem);
    std::array<Word, maxReqWords> scratch{};
    EXPECT_GT(a.accessAtomic(read(0x0, 8), 0, scratch),
              b.accessAtomic(read(0x0, 8), 0, scratch));
}

} // namespace
} // namespace hwgc::mem
