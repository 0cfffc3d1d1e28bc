/**
 * @file
 * The power-gating FSM of one power domain (Sections 3.1, 3.3): a whole
 * router, or one input port under fine-grained per-port gating
 * (Matsutani [20], Section 7.1). Router holds one of each.
 *
 *   Active --(idle >= t_idle_detect, policy agrees)--> Sleep
 *   Sleep  --(wake signal or policy)--> Wakeup --(t_wakeup)--> Active
 *
 * Each sleep period earns max(0, period - t_breakeven) compensated sleep
 * cycles (CSC) and (period - t_breakeven) signed net savings, settled
 * when the domain wakes or when a measurement interval is flushed.
 *
 * A plain value type: it holds no trace sink and no counters. Transitions
 * that settle a sleep period return the CSC/net deltas; the owning
 * Router adds them to its ActivityCounters and emits the trace events.
 */
#ifndef CATNAP_NOC_POWER_DOMAIN_H
#define CATNAP_NOC_POWER_DOMAIN_H

#include <algorithm>
#include <cstdint>
#include <limits>

#include "ckpt/archive.h"
#include "common/log.h"
#include "common/phase.h"
#include "common/types.h"

namespace catnap {

/** CSC / net-savings deltas earned by a settled sleep period. */
struct SleepCredit
{
    std::int64_t csc = 0;
    std::int64_t net = 0;
};

/** FSM state of one power domain; see the file comment. */
class PowerDomain
{
  public:
    PowerState state() const { return state_; }
    Cycle wake_done() const { return wake_done_; }
    /** When the open sleep period began (meaningful while asleep). */
    Cycle sleep_start() const { return sleep_start_; }
    int idle_streak() const { return idle_streak_; }
    int expected() const { return expected_; }
    bool wake_requested() const { return wake_requested_; }

    /** True if a flit arriving at @p arrival finds the domain powered. */
    bool
    accepts_at(Cycle arrival) const
    {
        return state_ == PowerState::kActive ||
               (state_ == PowerState::kWakeup && wake_done_ <= arrival);
    }

    /** The domain's own sleep conditions: Active, idle for at least
     * @p t_idle_detect cycles, and no announced packet inbound. */
    bool
    can_sleep(int t_idle_detect) const
    {
        return state_ == PowerState::kActive &&
               idle_streak_ >= t_idle_detect && expected_ == 0;
    }

    /** Latches the look-ahead wake signal. */
    CATNAP_PHASE_READ void request_wake() { wake_requested_ = true; }

    /** Announces an inbound packet (blocks sleep until it arrives). */
    CATNAP_PHASE_READ void expect_packet() { ++expected_; }

    CATNAP_PHASE_WRITE void clear_wake_request() { wake_requested_ = false; }

    /** An announced packet's head flit has arrived. */
    CATNAP_PHASE_WRITE void packet_arrived() { --expected_; }

    /** Wakeup -> Active once the wake-up has run; true on that edge. */
    CATNAP_PHASE_WRITE bool
    complete_wake(Cycle now)
    {
        if (state_ != PowerState::kWakeup || now < wake_done_)
            return false;
        state_ = PowerState::kActive;
        return true;
    }

    /** Extends (saturating) or resets the idle streak. */
    CATNAP_PHASE_WRITE void
    note_idle(bool empty)
    {
        if (!empty)
            idle_streak_ = 0;
        else if (idle_streak_ < std::numeric_limits<int>::max())
            ++idle_streak_;
    }

    /** The idle streak after @p skipped more empty cycles (saturating). */
    int
    idle_streak_after(Cycle skipped) const
    {
        const Cycle streak = std::min<Cycle>(
            static_cast<Cycle>(idle_streak_) + skipped,
            static_cast<Cycle>(std::numeric_limits<int>::max()));
        return static_cast<int>(streak);
    }

    /** Extends the idle streak by @p skipped empty cycles (saturating). */
    CATNAP_PHASE_WRITE void
    add_idle(Cycle skipped)
    {
        idle_streak_ = idle_streak_after(skipped);
    }

    /** Active -> Sleep at @p now. */
    CATNAP_PHASE_WRITE void
    sleep(Cycle now)
    {
        CATNAP_ASSERT(state_ == PowerState::kActive, "sleep from non-active");
        state_ = PowerState::kSleep;
        sleep_start_ = now;
    }

    /** Sleep -> Wakeup at @p now, completing at @p done (kNoCycle: a
     * wake that hangs); returns the credit the sleep period earned
     * beyond earlier flushes. */
    CATNAP_PHASE_WRITE SleepCredit
    wake(Cycle now, Cycle done, int t_breakeven)
    {
        CATNAP_ASSERT(state_ == PowerState::kSleep, "wake from non-sleep");
        const SleepCredit c = flush(now, t_breakeven);
        csc_credited_ = 0;
        net_credited_ = 0;
        state_ = PowerState::kWakeup;
        wake_done_ = done;
        return c;
    }

    /** Re-arms a wake in progress: hangs it again (@p done ==
     * kNoCycle) or pulls its completion forward to @p done, never back
     * (flits already in flight are timed to the current completion). */
    CATNAP_PHASE_WRITE void
    rearm_wake(Cycle done)
    {
        if (done == kNoCycle || done < wake_done_)
            wake_done_ = done;
    }

    /**
     * Credits the open sleep period so far without waking (end of a
     * measurement interval); zero unless asleep. The single place the
     * max(0, period - t_breakeven) settlement is computed.
     */
    CATNAP_PHASE_WRITE SleepCredit
    flush(Cycle now, int t_breakeven)
    {
        if (state_ != PowerState::kSleep)
            return {};
        const auto net = static_cast<std::int64_t>(now - sleep_start_) -
                         static_cast<std::int64_t>(t_breakeven);
        const std::int64_t csc = std::max<std::int64_t>(0, net);
        const SleepCredit delta{csc - csc_credited_, net - net_credited_};
        csc_credited_ = csc;
        net_credited_ = net;
        return delta;
    }

    /** Hard failure of the owner: forgets announced packets, wake
     * requests and the idle streak and parks the domain in Active. */
    CATNAP_PHASE_WRITE void
    abandon()
    {
        expected_ = 0;
        wake_requested_ = false;
        idle_streak_ = 0;
        state_ = PowerState::kActive;
    }

    // -- Checkpointing (src/ckpt; DESIGN.md §13) ---------------------------

    /** Checkpoint field order: router-level and per-port images predate
     * this type and order their last three fields differently. */
    enum class CkptOrder { kRouter, kPort };

    /** Writes the domain with @p idle_skipped empty cycles added to its
     * idle streak (its owner's commits skipped since the last one). */
    CATNAP_COLD_PATH CATNAP_PHASE_READ void
    Serialize(ckpt::Writer &w, CkptOrder order, Cycle idle_skipped = 0) const
    {
        const int idle_streak = idle_streak_after(idle_skipped);
        w.put_i32(static_cast<int>(state_));
        w.put_u64(wake_done_);
        w.put_u64(sleep_start_);
        w.put_i64(csc_credited_);
        w.put_i64(net_credited_);
        if (order == CkptOrder::kRouter) {
            w.put_bool(wake_requested_);
            w.put_i32(expected_);
            w.put_i32(idle_streak);
        } else {
            w.put_i32(idle_streak);
            w.put_i32(expected_);
            w.put_bool(wake_requested_);
        }
    }

    CATNAP_COLD_PATH CATNAP_PHASE_WRITE void
    Deserialize(ckpt::Reader &r, CkptOrder order)
    {
        state_ = static_cast<PowerState>(r.take_i32());
        wake_done_ = r.take_u64();
        sleep_start_ = r.take_u64();
        csc_credited_ = r.take_i64();
        net_credited_ = r.take_i64();
        if (order == CkptOrder::kRouter) {
            wake_requested_ = r.take_bool();
            expected_ = r.take_i32();
            idle_streak_ = r.take_i32();
        } else {
            idle_streak_ = r.take_i32();
            expected_ = r.take_i32();
            wake_requested_ = r.take_bool();
        }
    }

  private:
    PowerState state_ = PowerState::kActive;
    Cycle wake_done_ = 0;   ///< when a wake-up in progress completes
    Cycle sleep_start_ = 0; ///< when the open sleep period began
    /** CSC / net savings already credited for the open sleep period by
     * flush(), so later flushes and the final wake-up only add deltas. */
    std::int64_t csc_credited_ = 0;
    std::int64_t net_credited_ = 0;
    int idle_streak_ = 0; ///< consecutive cycles with the buffers empty
    int expected_ = 0;    ///< announced packets not yet arrived
    bool wake_requested_ = false; ///< look-ahead wake signal this cycle
};

} // namespace catnap

#endif // CATNAP_NOC_POWER_DOMAIN_H
