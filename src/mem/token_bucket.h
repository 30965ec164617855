/**
 * @file
 * The fixed-point token bucket behind the bus's bandwidth throttles
 * (paper §VII "Bandwidth Throttling": the GC unit "only use[s]
 * residual bandwidth").
 *
 * Tokens and rates are integers in steps of 2^-32 byte, and the bucket
 * holds at most four line transfers (2^40 steps), so idle periods
 * cannot bank unbounded bursts. Every rate that is a multiple of a step
 * — 0.25, 0.5, 1, 2, 2.5, 4 or 8 B/cycle, say — behaves exactly like
 * a double-precision accumulator; any other rate rounds to the nearest
 * step. Because accrual is integer, a span of N cycles is one multiply
 * and the cycle at which the bucket first covers a cost is computed
 * directly, which is what lets the event kernel skip token-starved
 * cycles instead of replaying them one by one.
 */

#ifndef HWGC_MEM_TOKEN_BUCKET_H
#define HWGC_MEM_TOKEN_BUCKET_H

#include <cmath>
#include <cstdint>

#include "sim/checkpoint.h"
#include "sim/types.h"

namespace hwgc::mem
{

/** See file header. One accrual happens per cycle, at its start. */
class TokenBucket
{
  public:
    /** Fixed-point steps per byte (one step is 2^-32 byte). */
    static constexpr std::uint64_t stepsPerByte = std::uint64_t(1) << 32;

    /** Bucket capacity: four line transfers. */
    static constexpr std::uint64_t cap = 4 * lineBytes * stepsPerByte;

    /** The cost of moving @p bytes, in steps. */
    static constexpr std::uint64_t
    steps(std::uint64_t bytes)
    {
        return bytes * stepsPerByte;
    }

    /**
     * Whether @p bytes_per_cycle is a rate the bucket can hold: 0
     * (unpaced) or a finite rate of at least one step per cycle.
     * Negative, NaN and infinite rates, and positive rates that would
     * round to zero, are not.
     */
    static bool
    validRate(double bytes_per_cycle)
    {
        return bytes_per_cycle == 0.0 ||
               (std::isfinite(bytes_per_cycle) &&
                bytes_per_cycle >= 1.0 / double(stepsPerByte));
    }

    /**
     * Sets the refill rate in bytes/cycle (0 = unpaced), rounded to
     * the nearest step. A rate above the capacity refills the bucket
     * every cycle, exactly like the capacity itself. The tokens held
     * are kept. Callers validate with validRate() first.
     */
    void
    setRate(double bytes_per_cycle)
    {
        const double steps_per_cycle =
            bytes_per_cycle * double(stepsPerByte);
        rate_ = steps_per_cycle >= double(cap)
                    ? cap
                    : std::uint64_t(std::llround(steps_per_cycle));
    }

    /** Whether the bucket paces anything (nonzero rate). */
    bool enabled() const { return rate_ != 0; }

    std::uint64_t rate() const { return rate_; }
    std::uint64_t tokens() const { return tokens_; }

    /** Whether the bucket holds @p cost steps. */
    bool covers(std::uint64_t cost) const { return tokens_ >= cost; }

    /** Spends @p cost steps; the caller checked covers(cost). */
    void spend(std::uint64_t cost) { tokens_ -= cost; }

    /** The tokens held after @p cycles more accruals. */
    std::uint64_t
    tokensAfter(Tick cycles) const
    {
        std::uint64_t added = 0;
        if (__builtin_mul_overflow(rate_, cycles, &added) ||
            added >= cap - tokens_) {
            return cap;
        }
        return tokens_ + added;
    }

    /** Accrues @p cycles cycles of refill, clamped at the capacity. */
    void accrue(Tick cycles) { tokens_ = tokensAfter(cycles); }

    /**
     * The number of accruals after which the bucket first covers
     * @p cost: 0 if it already does, maxTick if it never will (the
     * cost exceeds the capacity, or the bucket does not refill).
     */
    Tick
    accrualsUntil(std::uint64_t cost) const
    {
        if (tokens_ >= cost) {
            return 0;
        }
        if (cost > cap || rate_ == 0) {
            return maxTick;
        }
        return divCeil(cost - tokens_, rate_);
    }

    /**
     * Of the cycles [@p first, @p span) of a span that starts now,
     * how many find the bucket short of @p cost. Cycle j has made
     * j + 1 accruals, and tokens only grow, so the short cycles are a
     * prefix of the range.
     */
    Tick
    shortCycles(std::uint64_t cost, Tick first, Tick span) const
    {
        if (first >= span || tokensAfter(first + 1) >= cost) {
            return 0;
        }
        if (tokensAfter(span) < cost) {
            return span - first;
        }
        return accrualsUntil(cost) - 1 - first;
    }

    /** Sets the rate and the tokens held. */
    void
    restore(std::uint64_t rate, std::uint64_t tokens)
    {
        rate_ = rate;
        tokens_ = tokens;
    }

    /** Archives the rate and the tokens held. */
    void serialize(checkpoint::Archive &ar) { ar(rate_, tokens_); }

  private:
    std::uint64_t rate_ = 0;   //!< Steps added per cycle (0 = unpaced).
    std::uint64_t tokens_ = 0; //!< Steps held, at most cap.
};

} // namespace hwgc::mem

#endif // HWGC_MEM_TOKEN_BUCKET_H
