#include "power/power_meter.h"

#include "ckpt/fields.h"
#include "common/log.h"
#include "noc/multinoc.h"
#include "power/voltage.h"

namespace catnap {

PowerMeter::PowerMeter(MultiNoc &net, double vdd)
    : net_(net), vdd_(vdd),
      model_(net.config().subnet_link_bits(), vdd, net.config().num_vcs,
             net.config().vc_depth_flits, net.config().num_subnets > 1)
{
}

void
PowerMeter::begin()
{
    net_.finalize_accounting();
    start_.clear();
    start_.reserve(static_cast<std::size_t>(net_.num_subnets()) *
                   static_cast<std::size_t>(net_.num_nodes()));
    for (SubnetId s = 0; s < net_.num_subnets(); ++s)
        for (NodeId n = 0; n < net_.num_nodes(); ++n)
            start_.push_back(net_.router(s, n).activity(net_.now()));
    start_or_transitions_ = net_.congestion().rcs_transitions();
    start_cycle_ = net_.now();
}

PowerBreakdown
PowerMeter::compute(bool include_dynamic, bool include_static) const
{
    CATNAP_ASSERT(!start_.empty(), "PowerMeter::begin() not called");
    const Cycle cycles = net_.now() - start_cycle_;
    CATNAP_ASSERT(cycles > 0, "empty measurement interval");
    const double seconds =
        static_cast<double>(cycles) / (EnergyModel::kFrequencyGhz * 1e9);

    PowerBreakdown p;
    std::size_t idx = 0;
    for (SubnetId s = 0; s < net_.num_subnets(); ++s) {
        for (NodeId n = 0; n < net_.num_nodes(); ++n, ++idx) {
            const ActivityCounters a =
                net_.router(s, n).activity(net_.now());
            const ActivityCounters &b = start_[idx];

            if (include_dynamic) {
                const auto d = [](std::uint64_t now_v, std::uint64_t then_v) {
                    return static_cast<double>(now_v - then_v);
                };
                p.buffer += (d(a.buffer_writes, b.buffer_writes) *
                                 model_.e_buffer_write() +
                             d(a.buffer_reads, b.buffer_reads) *
                                 model_.e_buffer_read()) /
                            seconds;
                p.crossbar += d(a.xbar_traversals, b.xbar_traversals) *
                              model_.e_crossbar() / seconds;
                p.link += d(a.link_flits, b.link_flits) * model_.e_link() /
                          seconds;
                p.control += (d(a.arb_ops, b.arb_ops) * model_.e_arb() +
                              d(a.active_cycles, b.active_cycles) *
                                  model_.e_ctrl_cycle()) /
                             seconds;
                p.clock += d(a.active_cycles, b.active_cycles) *
                           model_.e_clock_cycle() / seconds;
                p.ni += d(a.ni_flits, b.ni_flits) * model_.e_ni_flit() /
                        seconds;
            }

            if (include_static) {
                // Leakage residency: net sleep savings remove leakage;
                // thrashing (negative savings) adds overhead.
                const std::int64_t saved = a.net_sleep_savings_cycles -
                                           b.net_sleep_savings_cycles;
                double factor = 1.0 - static_cast<double>(saved) /
                                          static_cast<double>(cycles);
                if (factor < 0.0)
                    factor = 0.0;
                // Fine-grained gating saves only the per-port share of
                // buffer and link leakage; the shared crossbar, clock,
                // and control never gate in that mode.
                const std::int64_t psaved =
                    a.port_net_sleep_savings_cycles -
                    b.port_net_sleep_savings_cycles;
                double pfactor =
                    1.0 - static_cast<double>(psaved) /
                              (static_cast<double>(cycles) * kNumPorts);
                if (pfactor < 0.0)
                    pfactor = 0.0;
                p.buffer += model_.leak_buffer() * factor * pfactor;
                p.crossbar += model_.leak_crossbar() * factor;
                p.control += model_.leak_control() * factor;
                p.clock += model_.leak_clock() * factor;
                p.link += model_.leak_link() * factor * pfactor;
            }
        }
    }

    if (include_static) {
        // NI leakage: once per node, never gated.
        p.ni += model_.leak_ni_node() *
                static_cast<double>(net_.num_nodes());
    }

    if (include_dynamic && net_.num_subnets() > 1) {
        const double or_switches = static_cast<double>(
            net_.congestion().rcs_transitions() - start_or_transitions_);
        p.or_net += or_switches * model_.e_or_switch() / seconds;
    }

    return p;
}

PowerBreakdown
PowerMeter::report() const
{
    return compute(true, true);
}

PowerBreakdown
PowerMeter::report_dynamic() const
{
    return compute(true, false);
}

PowerBreakdown
PowerMeter::report_static() const
{
    return compute(false, true);
}

double
PowerMeter::csc_percent() const
{
    CATNAP_ASSERT(!start_.empty(), "PowerMeter::begin() not called");
    std::int64_t csc = 0;
    std::uint64_t residency = 0;
    std::size_t idx = 0;
    for (SubnetId s = 0; s < net_.num_subnets(); ++s) {
        for (NodeId n = 0; n < net_.num_nodes(); ++n, ++idx) {
            const ActivityCounters a =
                net_.router(s, n).activity(net_.now());
            const ActivityCounters &b = start_[idx];
            csc += a.compensated_sleep_cycles - b.compensated_sleep_cycles;
            // Port-cycles convert to router-cycle equivalents at 1/5
            // weight (one of five ports gated).
            csc += (a.port_compensated_sleep_cycles -
                    b.port_compensated_sleep_cycles) /
                   kNumPorts;
            residency += (a.active_cycles + a.sleep_cycles) -
                         (b.active_cycles + b.sleep_cycles);
        }
    }
    if (residency == 0)
        return 0.0;
    const double frac =
        static_cast<double>(csc) / static_cast<double>(residency);
    return 100.0 * (frac > 0.0 ? frac : 0.0);
}

PowerBreakdown
analytic_network_power(int num_nodes, int num_subnets, int width_bits,
                       double vdd, int num_vcs, int vc_depth,
                       double load_factor)
{
    const EnergyModel model(width_bits, vdd, num_vcs, vc_depth,
                            num_subnets > 1);
    PowerBreakdown per_router = model.analytic_router_power(load_factor);
    // analytic_router_power charges NI leakage per router; NIs are shared
    // per node across subnets, so keep one share per node only.
    PowerBreakdown total = per_router;
    total.scale(static_cast<double>(num_nodes) *
                static_cast<double>(num_subnets));
    total.ni -= model.leak_ni_node() *
                static_cast<double>(num_nodes) *
                static_cast<double>(num_subnets - 1);
    return total;
}

CATNAP_PHASE_READ void
PowerMeter::Serialize(ckpt::Writer &w) const
{
    ckpt::put(w, start_);
    w.put_u64(start_or_transitions_);
    w.put_u64(start_cycle_);
}

CATNAP_PHASE_WRITE void
PowerMeter::Deserialize(ckpt::Reader &r)
{
    // A meter is empty before begin() and holds one snapshot per router
    // after; a restored meter may land in either state, so the size
    // comes from the archive — but only the two legal sizes are
    // accepted.
    start_ = ckpt::take<std::vector<ActivityCounters>>(r);
    const std::size_t per_router =
        static_cast<std::size_t>(net_.num_subnets()) *
        static_cast<std::size_t>(net_.num_nodes());
    if (!start_.empty() && start_.size() != per_router)
        throw ckpt::CkptError(
            "checkpoint: power-meter snapshot count " +
            std::to_string(start_.size()) +
            " matches neither 0 nor the router count " +
            std::to_string(per_router));
    start_or_transitions_ = r.take_u64();
    start_cycle_ = r.take_u64();
}

} // namespace catnap
