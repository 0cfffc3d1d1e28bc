/**
 * @file
 * The Multi-NoC: N parallel subnets over one topology, one NI per node
 * shared by all subnets (Figure 3), plus the Catnap policy machinery
 * (congestion detection, subnet selection, power gating).
 *
 * A Single-NoC is simply a MultiNoc with num_subnets == 1.
 */
#ifndef CATNAP_NOC_MULTINOC_H
#define CATNAP_NOC_MULTINOC_H

#include <memory>
#include <string>
#include <vector>

#include "catnap/congestion.h"
#include "catnap/gating.h"
#include "catnap/subnet_select.h"
#include "ckpt/fwd.h"
#include "common/phase.h"
#include "common/rng.h"
#include "common/types.h"
#include "fault/fault_plan.h"
#include "noc/metrics.h"
#include "noc/nic.h"
#include "noc/params.h"
#include "noc/router.h"
#include "topology/topology.h"

namespace catnap {

/** Full configuration of a Multi-NoC instance. */
struct MultiNocConfig
{
    // Topology (defaults: the paper's 256-core 8x8 concentrated mesh).
    int mesh_width = 8;
    int mesh_height = 8;
    int concentration = 4;
    int region_width = 4;
    /**
     * Concentrated torus instead of mesh (wrap-around links). Requires
     * an even number of VCs per message class for the dateline pairs.
     */
    bool torus = false;

    /** Number of subnets (1 == Single-NoC). */
    int num_subnets = 4;

    /**
     * Aggregate datapath width in bits, kept constant across designs for
     * fair comparisons (Section 2.3). Each subnet gets
     * total_link_bits / num_subnets wires.
     */
    int total_link_bits = 512;

    /**
     * Aggregate buffer space: VCs * depth * flit-width is constant
     * because the per-subnet flit shrinks with the subnet width while
     * depth-in-flits stays fixed (Section 2.3).
     */
    int num_vcs = 4;
    int vc_depth_flits = 4;
    int num_classes = 1;

    /** NI injection queue capacity in flits (Section 4.1: 16). */
    int ni_queue_flits = 16;

    // Policies.
    SelectorKind selector = SelectorKind::kCatnap;
    GatingKind gating = GatingKind::kAlwaysOn;
    CongestionConfig congestion;

    // Timing knobs forwarded into SubnetParams.
    int t_wakeup = 10;
    /** Not forwarded: no model code reads it. Kept because it is part
     * of the config hash (ckpt/schema.h). */
    int wakeup_hidden = 3;
    int t_breakeven = 12;
    int t_idle_detect = 4;

    std::uint64_t seed = 1;

    /**
     * Fault-injection plan (DESIGN.md §10). An empty plan (the default)
     * leaves the fault machinery entirely unconstructed, so fault-free
     * runs are bit-identical to builds that predate it.
     */
    FaultPlan fault;

    /** Per-subnet link width. */
    int subnet_link_bits() const { return total_link_bits / num_subnets; }

    /** Short config label such as "4NT-128b-PG" (Section 6.1 naming). */
    std::string label() const;
};

/** Returns the paper's Single-NoC configuration (1NT, @p bits wide). */
MultiNocConfig single_noc_config(int bits = 512,
                                 GatingKind gating = GatingKind::kAlwaysOn);

/**
 * Returns the paper's Multi-NoC configuration: @p subnets subnets over a
 * 512-bit aggregate datapath, with the Catnap selector; gating and
 * selector can be overridden for the baselines.
 */
MultiNocConfig multi_noc_config(int subnets = 4,
                                GatingKind gating = GatingKind::kAlwaysOn,
                                SelectorKind selector = SelectorKind::kCatnap);

/**
 * A complete multiple network-on-chip instance: topology, subnets,
 * network interfaces, congestion detection, and policies. Drive it by
 * offering packets to NIs and calling tick().
 */
class InvariantChecker;
class FaultController;

class MultiNoc
{
  public:
    explicit MultiNoc(const MultiNocConfig &cfg);
    ~MultiNoc();

    /** Advances the network by one cycle (evaluate/commit/policy). */
    CATNAP_PHASE_WRITE void tick();

    /**
     * Attaches a trace-event sink to every component (routers, NIs, the
     * congestion detector, and the subnet selector). Pass null to
     * detach; with no sink attached tracing costs one untaken branch
     * per potential event.
     */
    void set_event_sink(EventSink *sink);

    /** Current cycle (number of completed ticks). */
    Cycle now() const { return now_; }

    /** Convenience: offer a packet at its source NI. A declared
     * barrier crossing: traffic drivers run in the serialised
     * commit/drive section and stage packets into the NI's queues. */
    CATNAP_SHARD_SAFE CATNAP_PHASE_WRITE void
    offer_packet(const PacketDesc &pkt)
    {
        ni(pkt.src).offer_packet(pkt);
    }

    /** Runs the network for @p cycles cycles. */
    void
    run(Cycle cycles)
    {
        for (Cycle i = 0; i < cycles; ++i)
            tick();
    }

    /** True when no packet is queued, streaming, or in flight anywhere. */
    bool quiescent() const;

    // Accessors ------------------------------------------------------------
    const MultiNocConfig &config() const { return cfg_; }
    const ConcentratedMesh &mesh() const { return mesh_; }
    const SubnetParams &subnet_params() const { return subnet_params_; }

    NetworkInterface &ni(NodeId n) { return *nis_[static_cast<std::size_t>(n)]; }
    const NetworkInterface &ni(NodeId n) const
    {
        return *nis_[static_cast<std::size_t>(n)];
    }

    Router &
    router(SubnetId s, NodeId n)
    {
        return *routers_[static_cast<std::size_t>(s)]
                        [static_cast<std::size_t>(n)];
    }
    const Router &
    router(SubnetId s, NodeId n) const
    {
        return *routers_[static_cast<std::size_t>(s)]
                        [static_cast<std::size_t>(n)];
    }

    int num_subnets() const { return cfg_.num_subnets; }
    int num_nodes() const { return mesh_.num_nodes(); }

    NetMetrics &metrics() { return metrics_; }
    const NetMetrics &metrics() const { return metrics_; }

    const CongestionState &congestion() const { return congestion_; }
    CongestionState &congestion() { return congestion_; }

    /** Aggregated activity counters over all routers of subnet @p s. */
    ActivityCounters subnet_activity(SubnetId s) const;

    /** Aggregated activity counters over the whole network. */
    ActivityCounters total_activity() const;

    /** Fraction of router-cycles spent power gated, over subnet @p s. */
    double sleep_fraction(SubnetId s) const;

    /**
     * Compensated sleep cycles as a percentage of elapsed router-cycles
     * across the whole network (the paper's CSC metric, Section 6.1).
     */
    double csc_percent() const;

    /**
     * The fault controller, or null when the configured FaultPlan is
     * empty (the common case).
     */
    FaultController *fault() { return fault_.get(); }
    const FaultController *fault() const { return fault_.get(); }

    /**
     * Folds still-open sleep periods into the CSC counters. Call before
     * reading csc_percent() / activity at the end of a measurement.
     */
    CATNAP_SHARD_SAFE CATNAP_PHASE_WRITE void
    finalize_accounting()
    {
        for (auto &subnet : routers_)
            for (auto &r : subnet)
                r->flush_sleep_accounting(now_);
    }

    // -- Checkpointing (src/ckpt; DESIGN.md §13) ---------------------------

    /**
     * Appends the complete evolving network state: clock, root RNG,
     * metrics, congestion detector, every router and NI, the selector
     * and gating policies, and (when a fault plan is configured) the
     * fault controller. Construction-time wiring — topology, neighbour
     * pointers, adapters, sinks — is not serialized; Restore/Fork build
     * a fresh MultiNoc from the same config and overwrite only data
     * state via Deserialize().
     */
    CATNAP_COLD_PATH CATNAP_PHASE_READ void Serialize(ckpt::Writer &w) const;

    /** Restores what Serialize() wrote into a MultiNoc constructed from
     * the identical configuration. */
    CATNAP_COLD_PATH CATNAP_PHASE_WRITE void Deserialize(ckpt::Reader &r);

  private:
    MultiNocConfig cfg_;
    ConcentratedMesh mesh_;
    SubnetParams subnet_params_;
    NetMetrics metrics_;
    CongestionState congestion_;
    Rng rng_;

    std::vector<std::vector<std::unique_ptr<Router>>> routers_; // [s][n]
    std::vector<std::unique_ptr<NetworkInterface>> nis_;        // [n]
    std::unique_ptr<SubnetSelector> selector_;
    std::unique_ptr<GatingPolicy> gating_;
    std::unique_ptr<FaultController> fault_; // null when the plan is empty
    EventSink *sink_ = nullptr;

    /** Auto-installed invariant engine; non-null only when the build
     * enables CATNAP_CHECKS (the hook in tick() is compiled out
     * otherwise, so a normal build pays nothing). */
    std::unique_ptr<InvariantChecker> checker_;

    Cycle now_ = 0;
};

} // namespace catnap

#endif // CATNAP_NOC_MULTINOC_H
