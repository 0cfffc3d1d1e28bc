#include "app/core.h"

#include <algorithm>

#include "ckpt/fields.h"
#include "common/log.h"

namespace catnap {

CoreModel::CoreModel(CoreId id, const BenchmarkProfile &profile, Rng rng,
                     int issue_width, int mshrs,
                     double frontend_efficiency, int rob_size)
    : id_(id), profile_(profile), rng_(rng), issue_width_(issue_width),
      max_outstanding_(std::min(profile.mlp, mshrs)),
      frontend_efficiency_(frontend_efficiency), rob_size_(rob_size)
{
    CATNAP_ASSERT(issue_width_ > 0 && max_outstanding_ > 0,
                  "core needs width and MLP");
    // Quiet-phase MPKI is quiet_ratio * mean; the busy phase is derived
    // so the long-run (time-weighted) mean equals profile.mpki.
    const double qf = profile_.quiet_fraction;
    const double qr = profile_.quiet_ratio;
    mpki_quiet_ = profile_.mpki * qr;
    mpki_busy_ = profile_.mpki * (1.0 - qf * qr) / (1.0 - qf);
    enter_phase(0, rng_.bernoulli(qf));
    draw_gap();
}

void
CoreModel::enter_phase(Cycle now, bool quiet)
{
    quiet_ = quiet;
    // Phase lengths are geometric with means proportional to the time
    // split, so the long-run quiet-time fraction equals quiet_fraction.
    const double qf = profile_.quiet_fraction;
    const double mean = 2.0 * profile_.phase_len_cycles *
                        (quiet ? qf : (1.0 - qf));
    const double p = 1.0 / std::max(1.0, mean);
    phase_end_ = now + 1 + rng_.geometric(p);
}

void
CoreModel::draw_gap()
{
    const double mpki = quiet_ ? mpki_quiet_ : mpki_busy_;
    const double p = std::min(1.0, mpki / 1000.0);
    if (p <= 0.0) {
        gap_ = 1000000; // effectively no misses this phase
        return;
    }
    // geometric(p) failures before the miss instruction itself makes the
    // expected instructions-per-miss exactly 1/p, i.e. 1000/MPKI.
    gap_ = rng_.geometric(p);
}

int
CoreModel::tick(Cycle now)
{
    if (now >= phase_end_)
        enter_phase(now, !quiet_);

    int issued = 0;
    int budget = rng_.bernoulli(frontend_efficiency_) ? issue_width_ : 0;
    while (budget > 0) {
        // Instruction-window limit: cannot retire past the oldest
        // outstanding miss by more than the ROB size.
        if (!miss_issue_points_.empty() &&
            retired_ >= miss_issue_points_.front() +
                            static_cast<std::uint64_t>(rob_size_)) {
            break;
        }
        if (gap_ == 0) {
            if (outstanding_ >= max_outstanding_)
                break; // MLP limit: stall until a response returns
            ++outstanding_;
            miss_issue_points_.push_back(retired_);
            ++issued;
            ++retired_; // the miss instruction itself
            --budget;
            draw_gap();
            continue;
        }
        auto step = std::min<std::uint64_t>(
            gap_, static_cast<std::uint64_t>(budget));
        if (!miss_issue_points_.empty()) {
            const std::uint64_t window_limit = miss_issue_points_.front() +
                static_cast<std::uint64_t>(rob_size_);
            step = std::min(step, window_limit - retired_);
        }
        if (step == 0)
            break;
        retired_ += step;
        gap_ -= step;
        budget -= static_cast<int>(step);
    }
    return issued;
}

void
CoreModel::complete_miss()
{
    CATNAP_ASSERT(outstanding_ > 0, "complete with no outstanding miss");
    --outstanding_;
    // Responses may return out of order; retiring the oldest window
    // entry is the common case and a safe approximation otherwise.
    if (!miss_issue_points_.empty())
        miss_issue_points_.pop_front();
}

CATNAP_PHASE_READ void
CoreModel::Serialize(ckpt::Writer &w) const
{
    rng_.Serialize(w);
    w.put_u64(retired_);
    w.put_i32(outstanding_);
    w.put_u64(gap_);
    ckpt::put(w, miss_issue_points_);
    w.put_bool(quiet_);
    w.put_u64(phase_end_);
}

CATNAP_PHASE_WRITE void
CoreModel::Deserialize(ckpt::Reader &r)
{
    rng_.Deserialize(r);
    retired_ = r.take_u64();
    outstanding_ = r.take_i32();
    gap_ = r.take_u64();
    miss_issue_points_ = ckpt::take<std::deque<std::uint64_t>>(r);
    quiet_ = r.take_bool();
    phase_end_ = r.take_u64();
}

} // namespace catnap
