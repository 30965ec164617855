/**
 * @file
 * Tests for interconnect bandwidth throttling (paper §VII).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/hwgc_device.h"
#include "gc/verifier.h"
#include "mem/token_bucket.h"
#include "sim/random.h"
#include "workload/graph_gen.h"

namespace hwgc
{
namespace
{

struct ThrottleRig
{
    explicit ThrottleRig(double bytes_per_cycle)
        : heap(mem), builder(heap, graph())
    {
        builder.build();
        heap.clearAllMarks();
        heap.publishRoots();
        core::HwgcConfig config;
        config.bus.throttleBytesPerCycle = bytes_per_cycle;
        device = std::make_unique<core::HwgcDevice>(
            mem, heap.pageTable(), config);
        device->configure(heap);
    }

    static workload::GraphParams
    graph()
    {
        workload::GraphParams p;
        p.liveObjects = 1200;
        p.garbageObjects = 700;
        p.seed = 91;
        return p;
    }

    mem::PhysMem mem;
    runtime::Heap heap;
    workload::GraphBuilder builder;
    std::unique_ptr<core::HwgcDevice> device;
};

TEST(Throttle, ResultsUnchangedUnderThrottle)
{
    ThrottleRig rig(1.0);
    rig.device->collect();
    const auto marks = gc::verifyMarks(rig.heap);
    EXPECT_TRUE(marks.ok) << marks.error;
    const auto swept = gc::verifySweptHeap(rig.heap);
    EXPECT_TRUE(swept.ok) << swept.error;
}

TEST(Throttle, TighterCapsAreMonotonicallySlower)
{
    Tick previous = 0;
    for (const double cap : {0.0, 4.0, 1.0}) {
        ThrottleRig rig(cap);
        const auto result = rig.device->runMark();
        if (previous != 0) {
            EXPECT_GE(result.cycles, previous) << "cap " << cap;
        }
        previous = result.cycles;
    }
}

TEST(Throttle, MeasuredBandwidthStaysUnderCap)
{
    const double cap = 1.0; // 1 byte/cycle = 1 GB/s at 1 GHz.
    ThrottleRig rig(cap);
    const auto result = rig.device->collect();
    const double bytes =
        double(rig.device->dram()->bytesRead().value() +
               rig.device->dram()->bytesWritten().value());
    const double bytes_per_cycle = bytes / double(result.cycles);
    // The token bucket allows small bursts; allow 10% slack.
    EXPECT_LE(bytes_per_cycle, cap * 1.10);
}

TEST(Throttle, ThrottledGrantsCounted)
{
    ThrottleRig tight(0.5);
    tight.device->runMark();
    EXPECT_GT(tight.device->bus().throttledGrants(), 0u);

    ThrottleRig open(0.0);
    open.device->runMark();
    EXPECT_EQ(open.device->bus().throttledGrants(), 0u);
}

// ---------------------------------------------------------------------
// Fixed-point token bucket: the closed forms the event kernel skips
// token-starved cycles with must equal cycle-by-cycle accrual.
// ---------------------------------------------------------------------

using mem::TokenBucket;

/** A bucket holding @p tokens steps that refills @p rate per cycle. */
TokenBucket
bucketOf(std::uint64_t rate, std::uint64_t tokens)
{
    TokenBucket b;
    b.restore(rate, tokens);
    return b;
}

TEST(TokenBucket, ClosedFormMatchesPerCycleReference)
{
    Rng rng(2024);
    const std::uint64_t line = TokenBucket::steps(lineBytes);
    for (int trial = 0; trial < 4000; ++trial) {
        // Rates from one step to past the cap, so spans both stay
        // below the cap and cross it; costs at, below and above it.
        std::uint64_t rate = 0;
        switch (rng.below(3)) {
          case 0: rate = rng.range(1, TokenBucket::steps(1)); break;
          case 1: rate = rng.range(1, TokenBucket::steps(16)); break;
          default: rate = rng.range(1, TokenBucket::cap + 7); break;
        }
        const std::uint64_t tokens = rng.range(0, TokenBucket::cap);
        std::uint64_t cost = 0;
        switch (rng.below(4)) {
          case 0: cost = line; break;
          case 1: cost = TokenBucket::cap; break;
          case 2: cost = TokenBucket::cap + rng.range(1, line); break;
          default: cost = rng.range(0, TokenBucket::cap); break;
        }
        const Tick span = rng.range(1, 400);
        const TokenBucket bucket = bucketOf(rate, tokens);

        // Reference: one clamped accrual per cycle.
        std::uint64_t ref = tokens;
        Tick first_cover = ref >= cost ? 0 : maxTick;
        for (Tick k = 1; k <= span; ++k) {
            ref = std::min(ref + rate, TokenBucket::cap);
            ASSERT_EQ(bucket.tokensAfter(k), ref)
                << "rate " << rate << " tokens " << tokens << " k " << k;
            if (first_cover == maxTick && ref >= cost) {
                first_cover = k;
            }
        }
        TokenBucket accrued = bucket;
        accrued.accrue(span);
        EXPECT_EQ(accrued.tokens(), ref);

        const Tick until = bucket.accrualsUntil(cost);
        if (first_cover != maxTick) {
            EXPECT_EQ(until, first_cover) << "cost " << cost;
        } else if (cost > TokenBucket::cap) {
            EXPECT_EQ(until, maxTick) << "a cost above the cap is "
                                         "never covered";
        } else {
            ASSERT_GT(until, span);
            ASSERT_NE(until, maxTick);
            EXPECT_LT(bucket.tokensAfter(until - 1), cost);
            EXPECT_GE(bucket.tokensAfter(until), cost);
        }

        // Short cycles of [first, span): cycle j has made j + 1
        // accruals.
        const Tick first = rng.range(0, span);
        Tick short_ref = 0;
        for (Tick j = first; j < span; ++j) {
            short_ref += bucket.tokensAfter(j + 1) < cost ? 1 : 0;
        }
        EXPECT_EQ(bucket.shortCycles(cost, first, span), short_ref)
            << "rate " << rate << " tokens " << tokens << " cost "
            << cost << " first " << first << " span " << span;
    }
}

TEST(TokenBucket, HugeSpansSaturateWithoutOverflow)
{
    const TokenBucket b = bucketOf(TokenBucket::cap, 0);
    EXPECT_EQ(b.tokensAfter(maxTick), TokenBucket::cap);
    const TokenBucket slow = bucketOf(1, 5);
    EXPECT_EQ(slow.tokensAfter(maxTick), TokenBucket::cap);
    EXPECT_EQ(slow.accrualsUntil(TokenBucket::cap), TokenBucket::cap - 5);
    EXPECT_EQ(bucketOf(0, 3).accrualsUntil(4), maxTick);
    EXPECT_EQ(bucketOf(0, 3).accrualsUntil(3), 0u);
}

TEST(TokenBucket, StepMultipleRatesMatchTheDoubleAccumulator)
{
    // The bus's bucket used to be a double; every rate that is a
    // multiple of a step must keep its grant decisions bit for bit.
    Rng rng(7);
    for (const double rate : {0.25, 0.5, 1.0, 2.0, 2.5, 4.0, 8.0}) {
        TokenBucket fixed;
        fixed.setRate(rate);
        EXPECT_EQ(double(fixed.rate()),
                  rate * double(TokenBucket::stepsPerByte));
        double tokens = 0.0;
        for (int cycle = 0; cycle < 20000; ++cycle) {
            tokens = std::min(tokens + rate, 4.0 * double(lineBytes));
            fixed.accrue(1);
            const double cost = rng.chance(0.5) ? 64.0 : 8.0 * 64.0;
            const std::uint64_t fixed_cost =
                TokenBucket::steps(std::uint64_t(cost));
            ASSERT_EQ(tokens >= cost, fixed.covers(fixed_cost));
            if (tokens >= cost && rng.chance(0.7)) {
                tokens -= cost;
                fixed.spend(fixed_cost);
            }
            ASSERT_EQ(tokens * double(TokenBucket::stepsPerByte),
                      double(fixed.tokens()))
                << "rate " << rate << " cycle " << cycle;
        }
    }
}

TEST(TokenBucket, OffStepRatesRoundToTheNearestStep)
{
    for (const double rate : {0.3, 1.0 / 3.0, 0.1, 7.77, 1e-9}) {
        TokenBucket b;
        b.setRate(rate);
        const double exact = rate * double(TokenBucket::stepsPerByte);
        EXPECT_LE(std::abs(double(b.rate()) - exact), 0.5) << rate;
    }
    TokenBucket one_step;
    one_step.setRate(1.0 / double(TokenBucket::stepsPerByte));
    EXPECT_EQ(one_step.rate(), 1u);
    TokenBucket huge;
    huge.setRate(1e30); // Refills past full every cycle: the cap.
    EXPECT_EQ(huge.rate(), TokenBucket::cap);
}

TEST(TokenBucket, ValidRatesAreZeroOrAtLeastOneStep)
{
    EXPECT_TRUE(TokenBucket::validRate(0.0));
    EXPECT_TRUE(TokenBucket::validRate(0.3));
    EXPECT_TRUE(TokenBucket::validRate(1e30));
    EXPECT_TRUE(TokenBucket::validRate(std::ldexp(1.0, -32)));
    EXPECT_FALSE(TokenBucket::validRate(std::ldexp(1.0, -33)));
    EXPECT_FALSE(TokenBucket::validRate(1e-30));
    EXPECT_FALSE(TokenBucket::validRate(-1.0));
    EXPECT_FALSE(TokenBucket::validRate(
        std::numeric_limits<double>::quiet_NaN()));
    EXPECT_FALSE(TokenBucket::validRate(
        std::numeric_limits<double>::infinity()));
}

} // namespace
} // namespace hwgc
