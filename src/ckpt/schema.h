/**
 * @file
 * Field lists (ckpt/fields.h) of a run's description and its result:
 * MultiNocConfig with its CongestionConfig and FaultPlan,
 * SyntheticConfig, RunParams, SyntheticResult and PowerBreakdown. Each
 * list is the wire order of point images and journal records and the
 * mix order of the config hash and run identities (DESIGN.md §13, §15):
 * reordering one strands every file written before.
 */
#ifndef CATNAP_CKPT_SCHEMA_H
#define CATNAP_CKPT_SCHEMA_H

#include <cstdint>

#include "ckpt/fields.h"
#include "noc/multinoc.h"
#include "sim/simulator.h"

namespace catnap {
namespace ckpt {

template <typename V, typename T>
If<T, CongestionConfig>
fields(const V &v, T &c)
{
    v(c.metric);
    v(c.threshold);
    v(c.window);
    v(c.lcs_hold);
    v(c.use_rcs);
    v(c.rcs_period);
}

template <typename V, typename T>
If<T, FaultEvent>
fields(const V &v, T &e)
{
    v(e.kind);
    v(e.at);
    v(e.subnet);
    v(e.node);
    v(e.port);
    v(e.duration);
    v(e.delay);
}

template <typename V, typename T>
If<T, FaultTuning>
fields(const V &v, T &t)
{
    v(t.t_wake_timeout);
    v(t.max_wake_retries);
    v(t.backoff_cap_exp);
    v(t.packet_timeout);
    v(t.retransmit_delay);
    v(t.max_retransmits);
}

template <typename V, typename T>
If<T, FaultPlan>
fields(const V &v, T &p)
{
    v(p.events);
    v(p.wake_loss_prob);
    v(p.rcs_glitch_prob);
    v(p.seed);
    v(p.tuning);
}

/** Every MultiNocConfig field, fault plan included: a network checkpoint
 * restores only into the configuration it was saved under. */
template <typename V, typename T>
If<T, MultiNocConfig>
fields(const V &v, T &c)
{
    // Topology.
    v(c.mesh_width);
    v(c.mesh_height);
    v(c.concentration);
    v(c.region_width);
    v(c.torus);

    // Datapath sizing.
    v(c.num_subnets);
    v(c.total_link_bits);
    v(c.num_vcs);
    v(c.vc_depth_flits);
    v(c.num_classes);
    v(c.ni_queue_flits);

    // Policies.
    v(c.selector);
    v(c.gating);
    v(c.congestion);

    // Timing knobs.
    v(c.t_wakeup);
    v(c.wakeup_hidden);
    v(c.t_breakeven);
    v(c.t_idle_detect);
    v(c.seed);

    // A checkpoint taken under one fault plan must never restore under
    // another: the fault controller's timeline cursors index into it.
    v(c.fault);
}

template <typename V, typename T>
If<T, SyntheticConfig>
fields(const V &v, T &t)
{
    v(t.pattern);
    v(t.load);
    v(t.packet_bits);
    v(t.mc);
    v(t.node_bursts);
    v(t.burst_on_fraction);
    v(t.burst_mean_len);
}

template <typename V, typename T>
If<T, RunParams>
fields(const V &v, T &p)
{
    v(p.warmup);
    v(p.measure);
    v(p.drain_max);
    v(p.voltage_scaling);
    v(p.seed);
}

template <typename V, typename T>
If<T, PowerBreakdown>
fields(const V &v, T &p)
{
    v(p.buffer);
    v(p.crossbar);
    v(p.control);
    v(p.clock);
    v(p.link);
    v(p.ni);
    v(p.or_net);
}

template <typename V, typename T>
If<T, SyntheticResult>
fields(const V &v, T &r)
{
    v(r.config_label);
    v(r.offered_load);
    v(r.offered_rate);
    v(r.accepted_rate);
    v(r.avg_latency);
    v(r.avg_net_latency);
    v(r.p50_latency);
    v(r.p99_latency);
    v(r.csc_percent);
    v(r.vdd);
    v(r.power);
    v(r.power_static);
    v(r.measured_packets);
    v(r.drained);
    v(r.retransmits);
    v(r.dropped_packets);
    v(r.faults_fired);
    v(r.subnet_failures);
}

/**
 * The 64-bit identity of one run: the config list, the domain @p tag,
 * then the traffic and phase lists. "RUN1" keys run checkpoints
 * (SyntheticRun); "PNT1" keys sweep points (point_hash), so neither can
 * match the other or a bare config hash.
 */
inline std::uint64_t
run_identity(std::uint32_t tag, const MultiNocConfig &cfg,
             const SyntheticConfig &traffic, const RunParams &params)
{
    Fnv1a h;
    mix(h, cfg);
    h.mix_u32(tag);
    mix(h, traffic);
    mix(h, params);
    return h.value();
}

} // namespace ckpt
} // namespace catnap

#endif // CATNAP_CKPT_SCHEMA_H
