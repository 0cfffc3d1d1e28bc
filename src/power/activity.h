/**
 * @file
 * Event counters fed to the power model. Routers, links, and NIs count
 * micro-architectural events; the power meter converts counts into
 * energy using the component energy model.
 */
#ifndef CATNAP_POWER_ACTIVITY_H
#define CATNAP_POWER_ACTIVITY_H

#include <cstdint>

#include "ckpt/fwd.h"

namespace catnap {

/**
 * Activity counters for one router (plus its output links and NI share).
 * All counts are cumulative since construction or the last reset().
 */
struct ActivityCounters
{
    std::uint64_t buffer_writes = 0;   ///< flits written into input buffers
    std::uint64_t buffer_reads = 0;    ///< flits read out of input buffers
    std::uint64_t xbar_traversals = 0; ///< flits through the crossbar
    std::uint64_t link_flits = 0;      ///< flits over inter-router links
    std::uint64_t arb_ops = 0;         ///< switch/VC allocation grants
    std::uint64_t ni_flits = 0;        ///< flits through the NI (inj + ej)
    std::uint64_t active_cycles = 0;   ///< cycles in Active or Wakeup state
    std::uint64_t sleep_cycles = 0;    ///< cycles fully power gated
    std::uint64_t sleep_transitions = 0; ///< active->sleep transitions
    /**
     * Compensated sleep cycles [16]: sum over sleep periods of
     * max(0, period length - T_breakeven). A period too short to
     * amortize its gating transition contributes nothing (never a
     * negative amount) -- this is the paper's reported CSC metric.
     */
    std::int64_t compensated_sleep_cycles = 0;
    /**
     * Net leakage-energy savings in cycle equivalents: sum over sleep
     * periods of (period length - T_breakeven), *signed*. Thrashing
     * makes this negative; the power meter charges it as extra static
     * power.
     */
    std::int64_t net_sleep_savings_cycles = 0;

    // Fine-grained (per-port) gating counters. Port-cycles: one port
    // asleep for one cycle. Only the per-port share of buffer and link
    // leakage is saved; see PowerMeter.
    std::uint64_t port_sleep_cycles = 0;
    std::uint64_t port_sleep_transitions = 0;
    std::int64_t port_compensated_sleep_cycles = 0;
    std::int64_t port_net_sleep_savings_cycles = 0;

    /** Adds @p o into this counter set. */
    void
    add(const ActivityCounters &o)
    {
        buffer_writes += o.buffer_writes;
        buffer_reads += o.buffer_reads;
        xbar_traversals += o.xbar_traversals;
        link_flits += o.link_flits;
        arb_ops += o.arb_ops;
        ni_flits += o.ni_flits;
        active_cycles += o.active_cycles;
        sleep_cycles += o.sleep_cycles;
        sleep_transitions += o.sleep_transitions;
        compensated_sleep_cycles += o.compensated_sleep_cycles;
        net_sleep_savings_cycles += o.net_sleep_savings_cycles;
        port_sleep_cycles += o.port_sleep_cycles;
        port_sleep_transitions += o.port_sleep_transitions;
        port_compensated_sleep_cycles += o.port_compensated_sleep_cycles;
        port_net_sleep_savings_cycles += o.port_net_sleep_savings_cycles;
    }

    /** Zeroes every counter. */
    void reset() { *this = ActivityCounters(); }

    /** Field list (ckpt/fields.h), for checkpoints (DESIGN.md §13). */
    template <typename V, typename T>
    friend ckpt::If<T, ActivityCounters>
    fields(const V &v, T &a)
    {
        v(a.buffer_writes);
        v(a.buffer_reads);
        v(a.xbar_traversals);
        v(a.link_flits);
        v(a.arb_ops);
        v(a.ni_flits);
        v(a.active_cycles);
        v(a.sleep_cycles);
        v(a.sleep_transitions);
        v(a.compensated_sleep_cycles);
        v(a.net_sleep_savings_cycles);
        v(a.port_sleep_cycles);
        v(a.port_sleep_transitions);
        v(a.port_compensated_sleep_cycles);
        v(a.port_net_sleep_savings_cycles);
    }
};

} // namespace catnap

#endif // CATNAP_POWER_ACTIVITY_H
