/**
 * @file
 * The simulation kernel: clocked components and the System driver.
 *
 * All timing models are Clocked components registered with a System.
 * One cycle of simulated time is one core clock at 1 GHz (paper
 * Table I). The System runs in one of two kernel modes:
 *
 *  - Dense: the reference kernel. Every component is ticked on every
 *    cycle, exactly like real hardware clocks every flop.
 *  - Event: the fast kernel. Each component publishes the earliest
 *    cycle at which its tick() could have an observable effect
 *    (nextWakeup), the System ticks only the components that are due,
 *    and when nothing is due it fast-forwards the clock straight to
 *    the earliest pending wakeup instead of stepping through the gap.
 *
 * The two modes are cycle-exact equivalents as long as every component
 * honours the wakeup contract documented on Clocked::nextWakeup (see
 * DESIGN.md, "Simulation kernel").
 */

#ifndef HWGC_SIM_CLOCKED_H
#define HWGC_SIM_CLOCKED_H

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "sim/cycle_class.h"
#include "sim/logging.h"
#include "sim/stats.h"
#include "sim/types.h"

namespace hwgc
{

class System;

namespace checkpoint
{
class Archive;
} // namespace checkpoint

/** Kernel selection for System (see file header). */
enum class KernelMode
{
    Dense, //!< Tick every component every cycle (reference kernel).
    Event, //!< Tick only due components; fast-forward idle gaps.
};

/**
 * Resolves a user-facing kernel name, "dense" or "event", into
 * @p out. Returns false for any other name; callers reject it with
 * the offending field named and "want dense or event".
 */
inline bool
kernelModeFromName(const std::string &name, KernelMode &out)
{
    if (name == "dense") {
        out = KernelMode::Dense;
        return true;
    }
    if (name == "event") {
        out = KernelMode::Event;
        return true;
    }
    return false;
}

/** The user-facing name of @p mode: "dense" or "event". */
inline const char *
kernelModeName(KernelMode mode)
{
    return mode == KernelMode::Dense ? "dense" : "event";
}

/**
 * Passive observer of the kernel's execution, used by the telemetry
 * layer to derive per-component activity spans and to pace interval
 * sampling off the wakeup machinery. Observers only *read* simulator
 * state: attaching one must never change simulated cycles or
 * statistics (tests/test_telemetry.cc enforces this).
 */
class KernelObserver
{
  public:
    virtual ~KernelObserver() = default;

    /**
     * One executed cycle finished. Bit i of @p active_mask is set if
     * component i (in registration order) ticked this cycle (event
     * kernel) or reported busy() (dense kernel).
     */
    virtual void cycleExecuted(Tick now, std::uint64_t active_mask) = 0;

    /** Cycles [from, to) were fast-forwarded with nothing ticking. */
    virtual void fastForwarded(Tick from, Tick to) = 0;
};

/** Base class for anything evaluated once per clock cycle. */
class Clocked
{
    friend class System;

  public:
    /** @param name A unique, human-readable instance name; it also
     *  names the statistics group. */
    explicit Clocked(std::string name)
        : name_(std::move(name)), stats_(name_)
    {}
    virtual ~Clocked() = default;

    Clocked(const Clocked &) = delete;
    Clocked &operator=(const Clocked &) = delete;

    /** Evaluates one clock cycle at time @p now. */
    virtual void tick(Tick now) = 0;

    /**
     * Reports whether the component could still make progress.
     * runUntilIdle() stops once every component is idle for a cycle.
     */
    virtual bool busy() const = 0;

    /**
     * Wakeup contract of the event kernel: the earliest cycle >= @p now
     * at which tick() might do something fastForward() cannot replay —
     * a call into another component, or any change of this
     * component's own state or statistics beyond what fastForward()
     * reproduces in closed form for the skipped cycles (a blocked
     * retry's counters, a token bucket's accrual). Cycles before that
     * wakeup may be skipped without ticking this component, so an
     * implementation must be *conservative*: returning a cycle that
     * turns out to be a no-op only costs time, but returning one past
     * the first effective tick diverges from the dense kernel.
     *
     * Return @p now (not now + 1) to be ticked on every cycle, and
     * maxTick when only an external call (onResponse, a new request)
     * can create work — the System re-polls every component after each
     * cycle it actually executes, so cross-component pokes are seen.
     *
     * The default is safe for any component: tick every cycle while
     * busy(), never while idle.
     */
    virtual Tick
    nextWakeup(Tick now) const
    {
        return busy() ? now : maxTick;
    }

    /**
     * Classifies the cycle that just finished at time @p now for the
     * cycle-accounting profiler (DESIGN.md §10). Must be a pure
     * function of end-of-cycle architectural state — identical under
     * both kernels at every cycle boundary — and must never
     * mutate anything: the profiler is an observer, and enabling it
     * cannot change simulated results.
     *
     * The profiler re-classifies a component only when its class can
     * have changed (System::declareClassInputs). So a classifier of a
     * component that declared class inputs may read another
     * component's state only through a declared input — one of its
     * wakeup inputs or class-only inputs — or through a port whose
     * reads it makes only on cycles it ticks, and must not depend on
     * @p now; the dense kernel, which re-classifies every component
     * on every cycle, is the reference an audit holds it to.
     *
     * The default covers components without internal stall structure:
     * idle when not busy, busy when due to tick, otherwise waiting on
     * a producer. Components that model backpressure, memory traffic
     * or translation override this wholesale; in particular, any
     * component whose nextWakeup() returns @p now for a dense
     * port-retry loop must classify those retry cycles as the stall
     * they are rather than Busy.
     */
    virtual CycleClass
    cycleClass(Tick now) const
    {
        if (!busy()) {
            return CycleClass::Idle;
        }
        return nextWakeup(now) <= now ? CycleClass::Busy
                                      : CycleClass::StallUpstreamEmpty;
    }

    /**
     * Notification that the event kernel let cycles [from, to) elapse
     * without ticking this component (either a fast-forwarded gap or
     * a single executed cycle on which this component was not due).
     * Only components whose skipped ticks still change their own
     * state need to override this — the interconnect's cycle counter
     * and token accrual, stall counters, the TLB stamps of a blocked
     * retry. It must reproduce, in closed form, exactly what the
     * skipped ticks would have done to this component and nothing
     * more: it never calls into another component (nextWakeup() ends
     * the span before any tick that would), and it must be additive
     * over adjacent spans, so a span split at a checkpoint boundary
     * replays identically. An overrider MUST also set hasFastForward_
     * in its constructor — the kernel skips the virtual call for
     * everyone else (the A/B equivalence tests catch a forgotten
     * flag as a stats divergence).
     */
    virtual void fastForward(Tick from, Tick to)
    {
        (void)from;
        (void)to;
    }

    /** Whether fastForward() is overridden and must be called. */
    bool hasFastForward() const { return hasFastForward_; }

    /**
     * Saves or restores this component's complete architectural
     * state — registers, queues, in-flight bookkeeping and its
     * statistics group — within an already-open checkpoint chunk:
     * one function for both directions (see checkpoint::Archive), so
     * what is written and what is read cannot drift apart. Only legal
     * at an inter-cycle boundary (never mid-tick); restoring into a
     * different configuration fatal()s. The default panics: every
     * component registered with a checkpointed System must override
     * it (defined in checkpoint.cc).
     */
    virtual void serialize(checkpoint::Archive &ar);

    /**
     * The statistics this component owns. A structure inside it (a
     * TLB, per-port counters) declares its statistics into this group
     * or into a child of it, so registering the group exports them
     * all (telemetry::StatsGroups).
     */
    stats::Group &stats() { return stats_; }
    const stats::Group &stats() const { return stats_; }

    /**
     * Zeroes every statistic this component owns, its sub-structures'
     * child groups included, between GC pauses or experiment phases.
     */
    void resetStats() { stats_.reset(); }

    const std::string &name() const { return name_; }

  private:
    std::string name_;

  protected:
    /** The component's statistics (see stats()). */
    stats::Group stats_;

    /**
     * Marks this component's cached wakeup stale so the event kernel
     * re-polls nextWakeup() on the next cycle it evaluates (see
     * System::declareWakeupInputs). A component with declared wakeup
     * inputs MUST call this from every externally callable method
     * that mutates wakeup-relevant state — onResponse, queue
     * enqueues/dequeues, walk completions — since those run inside
     * *other* components' ticks, where the kernel cannot see them.
     * Harmless (and a no-op) outside a System or in dense mode.
     */
    void pokeWakeup();

    /**
     * Invalidates *another* component's cached wakeup. For producers
     * that know exactly which consumer a state change can unblock
     * (e.g. the bus freeing one client's queue slot), this is a
     * precise alternative to a declareWakeupInputs() edge, which
     * would re-poll the consumer after *every* tick of the producer.
     */
    void pokeWakeup(const Clocked &other);

    /** Set by subclasses that override fastForward() (see above). */
    bool hasFastForward_ = false;

  private:
    System *system_ = nullptr;
    std::size_t sysIndex_ = 0;
};

/**
 * Owns the global clock and the component list. Components are
 * registered by raw pointer and must outlive the System (they are
 * typically members of the owning simulation object).
 */
class System
{
  public:
    /** Registers a component; evaluation order is registration order. */
    void
    add(Clocked *c)
    {
        panic_if(c == nullptr, "System::add(nullptr)");
        panic_if(components_.size() >= 64,
                 "System supports at most 64 components");
        panic_if(c->system_ != nullptr,
                 "component '%s' already registered", c->name().c_str());
        c->system_ = this;
        c->sysIndex_ = components_.size();
        components_.push_back(c);
        wake_.push_back(maxTick);
        succ_.push_back(0);
        classSucc_.push_back(0);
        reach_.clear(); // Recomputed on the next reclassify().
    }

    /**
     * Opts @p dst into wakeup caching. By default the event kernel
     * re-polls every component's nextWakeup() on every cycle it
     * executes, because any tick anywhere might have created work for
     * it. A component whose wakeup can only drop when (a) one of the
     * listed @p srcs ticks, or (b) one of its own entry points runs
     * (which must then call pokeWakeup()), can declare that here: its
     * cached wakeup is then reused until one of those events — or its
     * own tick — invalidates it. Transitions that *raise* the wakeup
     * never need declaring; acting on a stale-low value just costs a
     * no-op tick or poll, exactly like a conservative nextWakeup().
     */
    void
    declareWakeupInputs(Clocked *dst,
                        std::initializer_list<Clocked *> srcs)
    {
        panic_if(dst == nullptr || dst->system_ != this,
                 "declareWakeupInputs for unregistered component");
        declared_ |= std::uint64_t(1) << dst->sysIndex_;
        for (Clocked *src : srcs) {
            panic_if(src == nullptr || src->system_ != this,
                     "wakeup input not registered");
            succ_[src->sysIndex_] |= std::uint64_t(1) << dst->sysIndex_;
            classSucc_[src->sysIndex_] |= std::uint64_t(1)
                << dst->sysIndex_;
        }
        reach_.clear();
    }

    /**
     * Opts @p dst into class caching for the cycle profiler, which
     * otherwise re-classifies every component on every cycle it
     * observes. Declared, @p dst's cycleClass() is taken to change
     * only when something *touches* it: it ticks or is poked, or a
     * component it reads is touched — one of its wakeup inputs, or
     * one of the class-only inputs @p srcs its classifier reads but
     * its wakeup does not (a sweeper reading whether the reclamation
     * unit is busy). Touches propagate along these edges: a
     * component reachable from a touched one is touched too. A
     * component whose class moves with time alone (the bus, whose
     * queued heads become ready without anything ticking) must not
     * declare. The dense kernel touches everything on every cycle,
     * so it is the reference the event kernel's profile must match.
     */
    void
    declareClassInputs(Clocked *dst, std::initializer_list<Clocked *> srcs)
    {
        panic_if(dst == nullptr || dst->system_ != this,
                 "declareClassInputs for unregistered component");
        classDeclared_ |= std::uint64_t(1) << dst->sysIndex_;
        for (Clocked *src : srcs) {
            panic_if(src == nullptr || src->system_ != this,
                     "class input not registered");
            classSucc_[src->sysIndex_] |= std::uint64_t(1)
                << dst->sysIndex_;
        }
        reach_.clear();
    }

    /**
     * The components whose cycleClass() may differ from its value at
     * the previous call: everything touched since then (@p ticked,
     * every component poked, and what those reach over the wakeup and
     * class edges of declareClassInputs()), plus every component that
     * declared no class inputs. Under the dense kernel, every
     * component. Consumes the pokes it reports.
     */
    std::uint64_t
    reclassify(std::uint64_t ticked)
    {
        const std::uint64_t touched = ticked | poked_;
        poked_ = 0;
        if (mode_ == KernelMode::Dense) {
            return registeredMask();
        }
        if (reach_.empty()) {
            computeReach();
        }
        std::uint64_t stale = ~classDeclared_;
        for (std::uint64_t t = touched & registeredMask(); t != 0;
             t &= t - 1) {
            stale |= reach_[std::size_t(__builtin_ctzll(t))];
        }
        return stale & registeredMask();
    }

    /** Invalidates @p c's cached wakeup (see Clocked::pokeWakeup). */
    void
    poke(const Clocked &c)
    {
        const std::uint64_t bit = std::uint64_t(1) << c.sysIndex_;
        dirty_ |= bit;
        poked_ |= bit;
    }

    /** Selects the kernel (callers may switch between runs). */
    void setMode(KernelMode mode) { mode_ = mode; }
    KernelMode mode() const { return mode_; }

    /**
     * Attaches a passive execution observer (nullptr detaches). The
     * observer is consulted only on cycles the kernel actually
     * executes plus fast-forward jumps, so a detached observer costs
     * one pointer compare per executed cycle and an attached one
     * cannot perturb simulated behaviour.
     */
    void setObserver(KernelObserver *observer) { observer_ = observer; }

    /**
     * Arms a wall-clock progress watchdog: if a single run call
     * (runUntilIdle / run / runUntilIdleStop) spends more than
     * @p seconds of host time without returning, @p reporter is
     * invoked to dump live diagnostics and the System panics — which
     * also fires the crash hook (logging.h) — instead of hanging
     * silently. The timer restarts at every run entry and the check
     * samples once per 64Ki executed cycles, so the cost is one
     * branch per cycle; @p seconds <= 0 disarms. Host-time-dependent
     * by design: it never alters simulated state, it only decides
     * when to give up on a wedged simulation.
     */
    void
    setWatchdog(double seconds, std::function<void()> reporter = {})
    {
        watchdogSecs_ = seconds;
        watchdogReporter_ = std::move(reporter);
    }

    /** Registered components, in evaluation order. */
    const std::vector<Clocked *> &components() const
    {
        return components_;
    }

    /** Current simulated time in cycles. */
    Tick now() const { return now_; }

    /**
     * Cycles the event kernel actually evaluated (vs. fast-forwarded
     * over). The ratio to now() is the kernel's skip rate.
     */
    std::uint64_t executedCycles() const { return executedCycles_; }

    /**
     * Advances the clock by exactly one cycle, ticking every
     * component, and reports whether any component is still busy (the
     * idle scan rides the same call so runUntilIdle() does not pay a
     * separate per-cycle pre-scan pass).
     */
    bool
    step()
    {
        for (auto *c : components_) {
            c->tick(now_);
        }
        const Tick cycle = now_;
        ++now_;
        ++executedCycles_;
        if (observer_ != nullptr) {
            // The observer needs the full busy mask anyway, so the
            // idle scan rides the mask-building pass.
            std::uint64_t mask = 0;
            for (std::size_t i = 0; i < components_.size(); ++i) {
                if (components_[i]->busy()) {
                    mask |= std::uint64_t(1) << i;
                }
            }
            observer_->cycleExecuted(cycle, mask);
            return mask != 0;
        }
        for (auto *c : components_) {
            if (c->busy()) {
                return true;
            }
        }
        return false;
    }

    /**
     * Runs until every component reports idle, or @p max_cycles have
     * elapsed since the call.
     *
     * @return true if the system went idle, false if the cycle budget
     *         was exhausted (which callers treat as a deadlock bug).
     */
    bool
    runUntilIdle(Tick max_cycles = 2'000'000'000ULL)
    {
        return runUntilIdleStop(maxTick, max_cycles) == StopReason::Idle;
    }

    /** Runs for exactly @p cycles cycles (idle or not). */
    void
    run(Tick cycles)
    {
        const Tick limit = saturatingLimit(cycles);
        watchdogArm();
        runLoop(limit, maxTick, false);
    }

    /** Why runUntilIdleStop() returned. */
    enum class StopReason
    {
        Idle,    //!< Every component went idle.
        Budget,  //!< max_cycles elapsed (callers treat as deadlock).
        Stopped, //!< The clock reached stop_at (checkpoint boundary).
    };

    /**
     * runUntilIdle(), but additionally returns control the moment the
     * clock reaches @p stop_at, at a clean inter-cycle boundary. The
     * event kernel clamps its fast-forward jumps at the stop
     * cycle, so the boundary always exists; because per-cycle
     * fastForward() accounting is additive over adjacent spans and
     * nextWakeup() is pure, the split changes no simulated state — a
     * stopped-and-continued run stays bit-identical to an
     * uninterrupted one. This is the checkpoint-at hook.
     */
    StopReason
    runUntilIdleStop(Tick stop_at, Tick max_cycles = 2'000'000'000ULL)
    {
        if (now_ >= stop_at) {
            return StopReason::Stopped;
        }
        const Tick limit = saturatingLimit(max_cycles);
        if (now_ >= limit) {
            return StopReason::Budget;
        }
        if (!anyBusy()) {
            return StopReason::Idle;
        }
        watchdogArm();
        return runLoop(limit, stop_at, true);
    }

    /**
     * Saves or restores the kernel state (clock and executed-cycle
     * count) within an open chunk. The wakeup caches are deliberately
     * *not* archived: nextWakeup() is a pure function of component
     * state, and loading marks every cache stale, so they rebuild
     * exactly. The kernel mode is a host-execution knob, not
     * architectural state — a checkpoint saved under one kernel
     * restores under the other.
     * Defined in checkpoint.cc.
     */
    void serialize(checkpoint::Archive &ar);

  private:
    Tick
    saturatingLimit(Tick cycles) const
    {
        return cycles > maxTick - now_ ? maxTick : now_ + cycles;
    }

    std::uint64_t
    registeredMask() const
    {
        return components_.size() >= 64
            ? ~std::uint64_t(0)
            : (std::uint64_t(1) << components_.size()) - 1;
    }

    /** Fills reach_: each component's transitive class successors,
     *  itself included. */
    void
    computeReach()
    {
        reach_.assign(components_.size(), 0);
        for (std::size_t i = 0; i < components_.size(); ++i) {
            std::uint64_t seen = std::uint64_t(1) << i;
            for (std::uint64_t todo = seen; todo != 0;) {
                const auto j = std::size_t(__builtin_ctzll(todo));
                todo &= todo - 1;
                const std::uint64_t fresh = classSucc_[j] & ~seen;
                seen |= fresh;
                todo |= fresh;
            }
            reach_[i] = seen;
        }
    }

    bool
    anyBusy() const
    {
        for (auto *c : components_) {
            if (c->busy()) {
                return true;
            }
        }
        return false;
    }

    /**
     * The one driver loop behind every run entry point: executes
     * cycles under the selected kernel until the clock reaches
     * @p limit (Budget) or @p stop_at (Stopped), or — with
     * @p stop_when_idle — until every component is idle (Idle). The
     * dense kernel steps every cycle through step(); the event kernel
     * executes a cycle through executeCycle() and, when it ticked
     * nothing, fast-forwards to the next wakeup (clamped at the limit
     * and the stop cycle — if every wakeup is maxTick while
     * components stay busy, that is the same deadlock the dense
     * kernel would step through as no-ops).
     */
    StopReason
    runLoop(Tick limit, Tick stop_at, bool stop_when_idle)
    {
        // Anything may have been reconfigured between runs (phase
        // starts, resets): every cached wakeup and class is stale.
        dirty_ = ~std::uint64_t(0);
        poked_ = ~std::uint64_t(0);
        const bool dense = mode_ == KernelMode::Dense;
        while (now_ < limit) {
            if (now_ >= stop_at) {
                return StopReason::Stopped;
            }
            bool idle = false;
            if (dense) {
                idle = !step();
            } else if (const CyclePass pass = executeCycle(); pass.ticked) {
                idle = stop_when_idle && !anyBusy();
            } else {
                fastForwardTo(std::min({pass.next, limit, stop_at}));
            }
            if (watchdogDue()) {
                watchdogFireIfExpired();
            }
            if (idle && stop_when_idle) {
                return StopReason::Idle;
            }
        }
        return StopReason::Budget;
    }

    /** Outcome of one event-kernel cycle pass. */
    struct CyclePass
    {
        bool ticked;  //!< At least one component ticked.
        Tick next;    //!< Earliest future wakeup seen (maxTick if
                      //!< ticked — pokes invalidate it anyway).
    };

    /**
     * Executes one cycle in a single pass. Each component's due-ness
     * is evaluated *at its turn* in registration order — not in a
     * separate up-front poll — because a component later in the order
     * must react in the same cycle to work pushed by an earlier one
     * (in the dense kernel its tick simply runs after the poke).
     * Non-due components get the cycle as a fast-forward
     * notification, and their wakeups are folded into a jump target:
     * if the whole pass ticked nothing, no state changed, so that
     * minimum is a safe cycle to fast-forward to. If anything ticked,
     * it may have poked components already passed, so the caller must
     * run the next cycle normally rather than jump.
     *
     * Wakeup caching: a component that declared its wakeup inputs is
     * only re-polled while its dirty bit is set — a tick of its own,
     * a tick of a declared input, or an explicit pokeWakeup() sets
     * it; otherwise its cached absolute wakeup stands. Dirty bits set
     * by a tick apply immediately, so a later component in the same
     * pass sees the poke at its turn, exactly like the uncached path.
     * Undeclared components are re-polled every executed cycle.
     */
    CyclePass
    executeCycle()
    {
        bool ticked = false;
        std::uint64_t tickedMask = 0;
        Tick next = maxTick;
        for (std::size_t i = 0; i < components_.size(); ++i) {
            const std::uint64_t bit = std::uint64_t(1) << i;
            Tick w;
            if ((dirty_ & bit) != 0 || (declared_ & bit) == 0) {
                w = components_[i]->nextWakeup(now_);
                wake_[i] = w;
                dirty_ &= ~bit;
            } else {
                w = wake_[i];
            }
            if (w <= now_) {
                components_[i]->tick(now_);
                ticked = true;
                tickedMask |= bit;
                dirty_ |= succ_[i] | bit;
            } else {
                if (components_[i]->hasFastForward()) {
                    components_[i]->fastForward(now_, now_ + 1);
                }
                next = std::min(next, w);
            }
        }
        const Tick cycle = now_;
        ++now_;
        ++executedCycles_;
        if (observer_ != nullptr) {
            observer_->cycleExecuted(cycle, tickedMask);
        }
        return {ticked, next};
    }

    /** Jumps the clock to @p target, notifying every component of the
     *  skipped span so per-cycle accounting stays exact. */
    void
    fastForwardTo(Tick target)
    {
        if (target <= now_) {
            return;
        }
        // The jump target was folded from wakeups read at each
        // component's turn in the pass — but a later component's
        // per-cycle fastForward() handler may have poked an earlier
        // one, lowering a wakeup the fold already captured. Those
        // pokes are exactly the dirty bits set since the poll, so
        // re-poll every stale component and clamp the jump before
        // committing it. Bits stay set: the next executed pass
        // re-polls (and clears) them through the normal path.
        for (std::uint64_t stale = dirty_ & registeredMask(); stale != 0;
             stale &= stale - 1) {
            const auto i = std::size_t(__builtin_ctzll(stale));
            target = std::min(target,
                              components_[i]->nextWakeup(now_));
        }
        if (target <= now_) {
            return; // A poked component is due now: no jump at all.
        }
        for (auto *c : components_) {
            if (c->hasFastForward()) {
                c->fastForward(now_, target);
            }
        }
        if (observer_ != nullptr) {
            observer_->fastForwarded(now_, target);
        }
        now_ = target;
    }

    /** Restarts the watchdog timer (each public run entry point). */
    void
    watchdogArm()
    {
        if (watchdogSecs_ > 0) {
            watchdogStart_ = std::chrono::steady_clock::now();
        }
    }

    /** Cheap per-cycle gate: sample host time every 64Ki cycles. */
    bool
    watchdogDue() const
    {
        return watchdogSecs_ > 0 && (executedCycles_ & 0xFFFF) == 0;
    }

    void
    watchdogFireIfExpired()
    {
        const double elapsed =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - watchdogStart_)
                .count();
        if (elapsed < watchdogSecs_) {
            return;
        }
        if (watchdogReporter_) {
            watchdogReporter_();
        }
        panic("watchdog: run made no completion progress for %.1f host "
              "seconds (cycle %llu, %llu executed); aborting wedged "
              "simulation",
              elapsed, static_cast<unsigned long long>(now_),
              static_cast<unsigned long long>(executedCycles_));
    }

    Tick now_ = 0;
    std::uint64_t executedCycles_ = 0;
    KernelMode mode_ = KernelMode::Event;
    KernelObserver *observer_ = nullptr;
    std::vector<Clocked *> components_;
    std::vector<Tick> wake_; //!< Cached absolute wakeups (event mode).
    std::vector<std::uint64_t> succ_; //!< Per-src mask of dependents.
    std::uint64_t declared_ = 0; //!< Components with declared inputs.
    std::uint64_t dirty_ = ~std::uint64_t(0); //!< Stale wakeup caches.
    /** Components poked since reclassify() last looked (all of them
     *  after a reconfiguration between runs). */
    std::uint64_t poked_ = ~std::uint64_t(0);
    /** Per-src mask of components whose class reads it (succ_ plus
     *  the class-only inputs). */
    std::vector<std::uint64_t> classSucc_;
    std::uint64_t classDeclared_ = 0; //!< Components caching a class.
    /** Transitive closure of classSucc_ (empty = recompute). */
    std::vector<std::uint64_t> reach_;
    double watchdogSecs_ = 0; //!< Progress watchdog limit (0 = off).
    std::function<void()> watchdogReporter_; //!< Pre-abort dump hook.
    std::chrono::steady_clock::time_point watchdogStart_;
};

inline void
Clocked::pokeWakeup()
{
    if (system_ != nullptr) {
        system_->poke(*this);
    }
}

inline void
Clocked::pokeWakeup(const Clocked &other)
{
    if (other.system_ != nullptr) {
        other.system_->poke(other);
    }
}

} // namespace hwgc

#endif // HWGC_SIM_CLOCKED_H
