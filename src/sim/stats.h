/**
 * @file
 * A small gem5-flavoured statistics framework.
 *
 * Components declare their statistics into groups they own; the
 * benches pull values out programmatically and the examples dump
 * human-readable listings. Everything is plain counters — statistics
 * never affect simulated behaviour.
 */

#ifndef HWGC_SIM_STATS_H
#define HWGC_SIM_STATS_H

#include <cstdint>
#include <functional>
#include <map>
#include <ostream>
#include <string>
#include <variant>
#include <vector>

#include "sim/logging.h"
#include "sim/types.h"

namespace hwgc::stats
{

class Group;

/** A named 64-bit counter / gauge. */
class Scalar
{
  public:
    Scalar() = default;
    explicit Scalar(std::string name) : name_(std::move(name)) {}
    /** Declares the counter into its owner's @p group. */
    Scalar(Group &group, std::string name);

    Scalar &operator++() { ++value_; return *this; }
    Scalar &operator+=(std::uint64_t v) { value_ += v; return *this; }
    void set(std::uint64_t v) { value_ = v; }
    void reset() { value_ = 0; }

    std::uint64_t value() const { return value_; }
    const std::string &name() const { return name_; }

  private:
    std::string name_;
    std::uint64_t value_ = 0;
};

/** A fixed set of named sub-counters (e.g. requests per source). */
class Vector
{
  public:
    Vector() = default;
    Vector(std::string name, std::vector<std::string> labels)
        : name_(std::move(name)), labels_(std::move(labels)),
          values_(labels_.size(), 0)
    {}
    Vector(Group &group, std::string name,
           std::vector<std::string> labels);

    void
    add(std::size_t idx, std::uint64_t v = 1)
    {
        panic_if(idx >= values_.size(), "stats::Vector index %zu out of "
                 "range for '%s'", idx, name_.c_str());
        values_[idx] += v;
    }

    void reset() { values_.assign(values_.size(), 0); }

    /** Overwrites one sub-counter (checkpoint restore). */
    void
    setValue(std::size_t idx, std::uint64_t v)
    {
        panic_if(idx >= values_.size(), "stats::Vector index %zu out of "
                 "range for '%s'", idx, name_.c_str());
        values_[idx] = v;
    }

    std::uint64_t value(std::size_t idx) const { return values_.at(idx); }

    std::uint64_t
    total() const
    {
        std::uint64_t t = 0;
        for (auto v : values_) {
            t += v;
        }
        return t;
    }

    std::size_t size() const { return values_.size(); }
    const std::string &label(std::size_t i) const { return labels_.at(i); }
    const std::string &name() const { return name_; }

  private:
    std::string name_;
    std::vector<std::string> labels_;
    std::vector<std::uint64_t> values_;
};

/** A sample distribution with mean/min/max and power-of-two buckets. */
class Histogram
{
  public:
    Histogram() = default;
    explicit Histogram(std::string name, unsigned log2_buckets = 32)
        : name_(std::move(name)), buckets_(log2_buckets, 0)
    {}
    Histogram(Group &group, std::string name, unsigned log2_buckets = 32);

    /** Records one sample. */
    void
    sample(std::uint64_t v)
    {
        ++count_;
        sum_ += v;
        if (count_ == 1 || v < min_) {
            min_ = v;
        }
        if (v > max_) {
            max_ = v;
        }
        unsigned b = 0;
        while ((1ULL << (b + 1)) <= v + 1 && b + 1 < buckets_.size()) {
            ++b;
        }
        ++buckets_[b];
    }

    void
    reset()
    {
        count_ = sum_ = min_ = max_ = 0;
        buckets_.assign(buckets_.size(), 0);
    }

    /** Overwrites the full distribution (checkpoint restore). */
    void
    restore(std::uint64_t count, std::uint64_t sum, std::uint64_t min,
            std::uint64_t max, const std::vector<std::uint64_t> &buckets)
    {
        panic_if(buckets.size() != buckets_.size(),
                 "stats::Histogram '%s' bucket count mismatch",
                 name_.c_str());
        count_ = count;
        sum_ = sum;
        min_ = min;
        max_ = max;
        buckets_ = buckets;
    }

    std::uint64_t count() const { return count_; }
    std::uint64_t sum() const { return sum_; }
    std::uint64_t minValue() const { return min_; }
    std::uint64_t maxValue() const { return max_; }
    double mean() const { return count_ ? double(sum_) / count_ : 0.0; }
    const std::vector<std::uint64_t> &buckets() const { return buckets_; }
    const std::string &name() const { return name_; }

  private:
    std::string name_;
    std::uint64_t count_ = 0;
    std::uint64_t sum_ = 0;
    std::uint64_t min_ = 0;
    std::uint64_t max_ = 0;
    std::vector<std::uint64_t> buckets_;
};

/**
 * Accumulates a value over fixed-width windows of simulated time;
 * used for the Fig 16 bandwidth-over-time traces.
 */
class TimeSeries
{
  public:
    TimeSeries() = default;
    TimeSeries(std::string name, Tick bucket_width)
        : name_(std::move(name)), width_(bucket_width)
    {
        panic_if(width_ == 0, "TimeSeries bucket width must be > 0");
    }
    TimeSeries(Group &group, std::string name, Tick bucket_width);

    /** Adds @p v to the bucket containing @p when. */
    void
    record(Tick when, std::uint64_t v)
    {
        const std::size_t idx = when / width_;
        if (idx >= buckets_.size()) {
            buckets_.resize(idx + 1, 0);
        }
        buckets_[idx] += v;
    }

    void reset() { buckets_.clear(); }

    /** Overwrites the bucket contents (checkpoint restore). */
    void setBuckets(std::vector<std::uint64_t> buckets)
    {
        buckets_ = std::move(buckets);
    }

    Tick bucketWidth() const { return width_; }
    const std::vector<std::uint64_t> &buckets() const { return buckets_; }
    const std::string &name() const { return name_; }

  private:
    std::string name_;
    Tick width_ = 1;
    std::vector<std::uint64_t> buckets_;
};

/**
 * The statistics one component owns. A statistic is declared once,
 * into its owner's group (`stats::Scalar requests_{stats_,
 * "requests"}`), and the group is then the only list of them: the
 * telemetry registry exports it (sim/telemetry.h), reset() zeroes it
 * and checkpoints archive it as one item, in declaration order
 * (sim/checkpoint.h). A structure inside the component (a TLB, a
 * cache level) declares its own group as a child of its owner's, so
 * the component's groups form a tree: reset() and a registration
 * cover the whole tree, while archiving covers one group only and
 * each owner archives its sub-structures itself. The group keeps
 * pointers, so a statistic or a child must not move once declared;
 * groups are neither copied nor moved.
 */
class Group
{
  public:
    explicit Group(std::string name) : name_(std::move(name)) {}

    /** Declares a child group named @p name inside @p parent. */
    Group(Group &parent, std::string name) : name_(std::move(name))
    {
        parent.children_.push_back(this);
    }

    Group(const Group &) = delete;
    Group &operator=(const Group &) = delete;

    /** Appends a statistic (its constructor does this for owners). */
    void add(Scalar *s) { scalars_.push_back(s); order_.push_back(s); }
    void add(Vector *v) { vectors_.push_back(v); order_.push_back(v); }
    void
    add(Histogram *h)
    {
        histograms_.push_back(h);
        order_.push_back(h);
    }
    void
    add(TimeSeries *t)
    {
        timeSeries_.push_back(t);
        order_.push_back(t);
    }

    /** Zeroes every statistic in the group and in its children. */
    void
    reset()
    {
        forEach([](auto &stat) { stat.reset(); });
        for (Group *child : children_) {
            child->reset();
        }
    }

    /** Calls @p fn on every statistic of this group (not of its
     *  children), in declaration order. */
    template <typename Fn>
    void
    forEach(Fn &&fn)
    {
        for (const Stat &stat : order_) {
            std::visit([&fn](auto *s) { fn(*s); }, stat);
        }
    }

    /**
     * Names a callback that brings the group's statistics up to date
     * before they are read, for an owner that accrues them lazily
     * (gem5's preDumpStats). dump() and the telemetry exporters call
     * it; it must not change what a statistic means, only when its
     * value is written.
     */
    void setPreDump(std::function<void()> fn) { preDump_ = std::move(fn); }

    /** Runs the callback of setPreDump(), if any. */
    void
    preDump() const
    {
        if (preDump_) {
            preDump_();
        }
    }

    /** Writes a human-readable listing of all registered stats. */
    void dump(std::ostream &os) const;

    const std::string &name() const { return name_; }

    /** The child groups, in declaration order. */
    const std::vector<Group *> &children() const { return children_; }

    /** @name Introspection by kind (telemetry exporters) @{ */
    const std::vector<Scalar *> &scalars() const { return scalars_; }
    const std::vector<Vector *> &vectors() const { return vectors_; }
    const std::vector<Histogram *> &histograms() const
    {
        return histograms_;
    }
    const std::vector<TimeSeries *> &timeSeries() const
    {
        return timeSeries_;
    }
    /** @} */

  private:
    using Stat = std::variant<Scalar *, Vector *, Histogram *, TimeSeries *>;

    std::string name_;
    std::vector<Scalar *> scalars_;
    std::vector<Vector *> vectors_;
    std::vector<Histogram *> histograms_;
    std::vector<TimeSeries *> timeSeries_;
    std::vector<Stat> order_; //!< Every statistic, in declaration order.
    std::vector<Group *> children_;
    std::function<void()> preDump_;
};

inline Scalar::Scalar(Group &group, std::string name)
    : name_(std::move(name))
{
    group.add(this);
}

inline Vector::Vector(Group &group, std::string name,
                      std::vector<std::string> labels)
    : Vector(std::move(name), std::move(labels))
{
    group.add(this);
}

inline Histogram::Histogram(Group &group, std::string name,
                            unsigned log2_buckets)
    : Histogram(std::move(name), log2_buckets)
{
    group.add(this);
}

inline TimeSeries::TimeSeries(Group &group, std::string name,
                              Tick bucket_width)
    : TimeSeries(std::move(name), bucket_width)
{
    group.add(this);
}

} // namespace hwgc::stats

#endif // HWGC_SIM_STATS_H
