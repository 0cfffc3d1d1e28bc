/**
 * @file
 * Small statistics primitives used to collect simulation metrics:
 * running mean/variance, histograms, and windowed (time-series) samplers.
 */
#ifndef CATNAP_COMMON_STATS_H
#define CATNAP_COMMON_STATS_H

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>
#include "ckpt/fields.h"
#include "common/phase.h"

namespace catnap {

/**
 * Numerically stable running mean / variance / min / max accumulator
 * (Welford's algorithm).
 */
class RunningStat
{
  public:
    /** Adds one sample. */
    CATNAP_PHASE_READ void
    add(double x)
    {
        ++n_;
        const double delta = x - mean_;
        mean_ += delta / static_cast<double>(n_);
        m2_ += delta * (x - mean_);
        min_ = std::min(min_, x);
        max_ = std::max(max_, x);
        sum_ += x;
    }

    /** Resets to the empty state. */
    void
    reset()
    {
        *this = RunningStat();
    }

    /** Number of samples seen. */
    std::uint64_t count() const { return n_; }

    /** Mean of samples, or 0 if empty. */
    double mean() const { return n_ ? mean_ : 0.0; }

    /** Sum of samples. */
    double sum() const { return sum_; }

    /** Population variance, or 0 if fewer than 2 samples. */
    double
    variance() const
    {
        return n_ > 1 ? m2_ / static_cast<double>(n_) : 0.0;
    }

    /** Minimum sample, or 0 if empty. */
    double min() const { return n_ ? min_ : 0.0; }

    /** Maximum sample, or 0 if empty. */
    double max() const { return n_ ? max_ : 0.0; }

    /** Appends the accumulator state to a checkpoint (DESIGN.md §13). */
    CATNAP_COLD_PATH CATNAP_PHASE_READ void
    Serialize(ckpt::Writer &w) const
    {
        w.put_u64(n_);
        w.put_double(mean_);
        w.put_double(m2_);
        w.put_double(sum_);
        w.put_double(min_);
        w.put_double(max_);
    }

    /** Restores the accumulator state from a checkpoint. */
    CATNAP_COLD_PATH CATNAP_PHASE_WRITE void
    Deserialize(ckpt::Reader &r)
    {
        n_ = r.take_u64();
        mean_ = r.take_double();
        m2_ = r.take_double();
        sum_ = r.take_double();
        min_ = r.take_double();
        max_ = r.take_double();
    }

  private:
    std::uint64_t n_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double sum_ = 0.0;
    double min_ = std::numeric_limits<double>::infinity();
    double max_ = -std::numeric_limits<double>::infinity();
};

/**
 * Fixed-width-bucket histogram over [0, bucket_width * num_buckets); samples
 * beyond the last bucket are clamped into an overflow bucket.
 */
class Histogram
{
  public:
    /** Creates a histogram of @p num_buckets buckets of @p bucket_width. */
    Histogram(double bucket_width, std::size_t num_buckets)
        : width_(bucket_width), counts_(num_buckets + 1, 0)
    {
    }

    /** Adds one sample. */
    CATNAP_PHASE_READ void
    add(double x)
    {
        auto idx = static_cast<std::size_t>(std::max(0.0, x) / width_);
        idx = std::min(idx, counts_.size() - 1);
        ++counts_[idx];
        ++total_;
    }

    /** Count in bucket @p i (the last bucket is the overflow bucket). */
    std::uint64_t bucket(std::size_t i) const { return counts_[i]; }

    /** Number of buckets including the overflow bucket. */
    std::size_t num_buckets() const { return counts_.size(); }

    /** Total samples added. */
    std::uint64_t total() const { return total_; }

    /**
     * Value below which @p q (in [0,1]) of the samples fall, estimated at
     * bucket granularity (upper edge of the containing bucket).
     */
    double
    quantile(double q) const
    {
        if (total_ == 0) return 0.0;
        const auto target = static_cast<std::uint64_t>(
            q * static_cast<double>(total_));
        std::uint64_t cum = 0;
        for (std::size_t i = 0; i < counts_.size(); ++i) {
            cum += counts_[i];
            if (cum > target)
                return width_ * static_cast<double>(i + 1);
        }
        return width_ * static_cast<double>(counts_.size());
    }

    /** Appends the histogram state to a checkpoint (DESIGN.md §13). */
    CATNAP_COLD_PATH CATNAP_PHASE_READ void
    Serialize(ckpt::Writer &w) const
    {
        w.put_double(width_);
        ckpt::put(w, counts_);
        w.put_u64(total_);
    }

    /** Restores the histogram state from a checkpoint. */
    CATNAP_COLD_PATH CATNAP_PHASE_WRITE void
    Deserialize(ckpt::Reader &r)
    {
        width_ = r.take_double();
        counts_ = ckpt::take<std::vector<std::uint64_t>>(r);
        total_ = r.take_u64();
    }

  private:
    double width_;
    std::vector<std::uint64_t> counts_;
    std::uint64_t total_ = 0;
};

/**
 * Accumulates a value over fixed-length windows of cycles, producing a
 * time series (used e.g. for Figure 12's 50-cycle throughput samples).
 */
class WindowedSeries
{
  public:
    /** Creates a sampler with @p window_cycles cycles per sample. */
    explicit WindowedSeries(std::uint64_t window_cycles)
        : window_(window_cycles)
    {
    }

    /** Adds @p amount at time @p now, closing windows as time advances. */
    CATNAP_PHASE_READ void
    add(std::uint64_t now, double amount)
    {
        roll_to(now);
        current_ += amount;
    }

    /** Advances time to @p now without adding anything. */
    CATNAP_PHASE_READ void
    roll_to(std::uint64_t now)
    {
        const std::uint64_t idx = now / window_;
        while (next_index_ <= idx) {
            samples_.push_back(current_);
            current_ = 0.0;
            ++next_index_;
        }
    }

    /** Closed windows so far (sum of added amounts per window). */
    const std::vector<double> &samples() const { return samples_; }

    /** Window length in cycles. */
    std::uint64_t window() const { return window_; }

    /** Appends the sampler state to a checkpoint (DESIGN.md §13). */
    CATNAP_COLD_PATH CATNAP_PHASE_READ void
    Serialize(ckpt::Writer &w) const
    {
        w.put_u64(window_);
        w.put_u64(next_index_);
        w.put_double(current_);
        ckpt::put(w, samples_);
    }

    /** Restores the sampler state from a checkpoint. */
    CATNAP_COLD_PATH CATNAP_PHASE_WRITE void
    Deserialize(ckpt::Reader &r)
    {
        window_ = r.take_u64();
        next_index_ = r.take_u64();
        current_ = r.take_double();
        samples_ = ckpt::take<std::vector<double>>(r);
    }

  private:
    std::uint64_t window_;
    std::uint64_t next_index_ = 1;
    double current_ = 0.0;
    std::vector<double> samples_;
};

} // namespace catnap

#endif // CATNAP_COMMON_STATS_H
