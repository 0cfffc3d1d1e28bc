/**
 * @file
 * Congestion detection for subnet selection and power gating
 * (Sections 3.2.1 and 3.4 of the paper).
 *
 * Each node computes a per-subnet *local congestion status* (LCS) from a
 * configurable metric; a 1-bit OR network aggregates LCS over 4x4 regions
 * into a *regional congestion status* (RCS) latched every rcs_period
 * cycles. The effective congestion signal a node sees for a subnet is
 * LCS || RCS (when the RCS network is enabled).
 *
 * The buffer metrics (BFM, BFA) skip a router the gating policy has
 * retired (set_live()) while its LCS is clear: it holds no flit, so its
 * LCS would stay clear.
 */
#ifndef CATNAP_CATNAP_CONGESTION_H
#define CATNAP_CATNAP_CONGESTION_H

#include <cstdint>
#include <vector>

#include "ckpt/fwd.h"
#include "common/phase.h"
#include "common/types.h"
#include "obs/event.h"
#include "topology/topology.h"

namespace catnap {

class Router;
class NetworkInterface;

/** Local congestion metric choices evaluated in the paper (Section 3.4). */
enum class CongestionMetric : std::int8_t {
    kBufferMax = 0,   ///< max per-port buffer occupancy (BFM) -- the winner
    kBufferAvg = 1,   ///< average per-port buffer occupancy (BFA)
    kInjectionRate = 2, ///< NI injection rate over a window (IR)
    kInjQueueOcc = 3, ///< NI injection queue occupancy (IQOcc)
    kBlockingDelay = 4, ///< avg blocking delay per flit (Delay)
};

/** Human-readable metric name. */
const char *congestion_metric_name(CongestionMetric m);

/** Configuration of the congestion detector. */
struct CongestionConfig
{
    CongestionMetric metric = CongestionMetric::kBufferMax;

    /**
     * Congestion threshold; units depend on the metric. Paper-tuned
     * values: BFM 9 flits, BFA 2 flits, Delay 1.5 cycles, IQOcc 4 flits,
     * IR in packets/node/cycle (0.04 .. 0.24).
     */
    double threshold = 9.0;

    /** Sampling window for rate/delay metrics, in cycles. */
    int window = 32;

    /**
     * Minimum cycles the LCS stays asserted once set ("once a subnet is
     * declared congested, it remains in that status for a few cycles").
     */
    int lcs_hold = 8;

    /** Enables the regional 1-bit OR network. */
    bool use_rcs = true;

    /** RCS latch period in cycles (paper SPICE: 6 cycles at 2 GHz). */
    int rcs_period = 6;

    /** Returns the paper-tuned threshold for @p m. */
    static double default_threshold(CongestionMetric m);
};

/**
 * Tracks LCS for every (node, subnet) pair and the latched RCS bits per
 * (region, subnet). Updated once per cycle in the policy phase, after all
 * routers and NIs have committed.
 */
class CongestionState
{
  public:
    /**
     * Creates the detector.
     *
     * @param mesh the topology (defines nodes and regions)
     * @param num_subnets subnets being monitored
     * @param cfg metric and thresholds
     */
    CongestionState(const ConcentratedMesh &mesh, int num_subnets,
                    const CongestionConfig &cfg);

    /**
     * Registers the router and NI serving @p node on subnet @p s. Must be
     * called for every (node, subnet) before the first update(). The NI
     * may be null for router-side metrics (BFM/BFA) only — the model
     * checker (tools/model/) wires routers without NIs; the NI-side
     * metrics (IQOcc/IR) assert it at sample time.
     */
    void attach(NodeId node, SubnetId s, const Router *router,
                const NetworkInterface *ni);

    /** Attaches the trace-event sink (null disables emission). */
    void set_sink(EventSink *sink) { sink_ = sink; }

    /** Attaches the gating policy's live bytes ([subnet][node]; see
     * GatingPolicy::live()). Without them every sample is visited. */
    void
    set_live(const std::vector<std::vector<std::uint8_t>> *live)
    {
        live_ = live;
    }

    /** Recomputes LCS for every node (skipping retired routers under
     * the buffer metrics) and latches RCS on period boundaries. */
    CATNAP_PHASE_WRITE void update(Cycle now);

    /**
     * Fault injection (src/fault): flips the latched RCS bit of
     * (@p region, @p s), modelling a transient glitch in the OR-tree.
     * The corruption is inherently transient -- the next latch boundary
     * overwrites it with the true OR of the region's LCS bits. Counts as
     * an RCS transition and emits the matching kRcsSet/kRcsClear event.
     */
    CATNAP_SHARD_SAFE CATNAP_PHASE_WRITE void glitch_rcs_for_fault(int region, SubnetId s,
                                                 Cycle now);

    /** Local congestion status of @p node for subnet @p s. */
    bool lcs(NodeId node, SubnetId s) const
    {
        return lcs_[index(node, s)];
    }

    /**
     * Cycle until which @p node's LCS for subnet @p s stays asserted by
     * hysteresis (0 when never set). Exposed so the model checker's
     * state vector captures the remaining hold time exactly.
     */
    Cycle
    lcs_hold_until(NodeId node, SubnetId s) const
    {
        return samples_[index(node, s)].lcs_set_until;
    }

    /** Latched regional congestion status for @p node's region. */
    bool
    rcs(NodeId node, SubnetId s) const
    {
        return rcs_latched_[region_index(mesh_.region_of(node), s)];
    }

    /** Latched RCS bit of @p region directly (observability exports). */
    bool
    rcs_region(int region, SubnetId s) const
    {
        return rcs_latched_[region_index(region, s)];
    }

    /** Effective congestion signal: LCS || RCS (per configuration). */
    bool
    congested(NodeId node, SubnetId s) const
    {
        return lcs(node, s) || (cfg_.use_rcs && rcs(node, s));
    }

    /** False when congested() is false for every node of subnet @p s. */
    bool
    any_congested(SubnetId s) const
    {
        const auto si = static_cast<std::size_t>(s);
        return lcs_count_[si] > 0 || (cfg_.use_rcs && rcs_count_[si] > 0);
    }

    /** Number of 0<->1 transitions of latched RCS bits (OR-net energy). */
    std::uint64_t rcs_transitions() const { return rcs_transitions_; }

    /** Number of RCS latch events (period boundaries seen). */
    std::uint64_t rcs_latch_events() const { return rcs_latch_events_; }

    /** The configuration in use. */
    const CongestionConfig &config() const { return cfg_; }

    // -- Checkpointing (src/ckpt; DESIGN.md §13) ---------------------------

    /**
     * Appends the evolving detector state (window bookkeeping, LCS
     * hysteresis, latched RCS bits, transition counters). Router/NI
     * attachments are wiring and are re-established by the MultiNoc
     * constructor on restore.
     */
    CATNAP_COLD_PATH CATNAP_PHASE_READ void Serialize(ckpt::Writer &w) const;

    /** Restores what Serialize() wrote into an identically shaped
     * detector. */
    CATNAP_COLD_PATH CATNAP_PHASE_WRITE void Deserialize(ckpt::Reader &r);

  private:
    struct NodeSample
    {
        const Router *router = nullptr;
        const NetworkInterface *ni = nullptr;
        // Window bookkeeping for rate/delay metrics.
        std::uint64_t last_injected_pkts = 0;
        std::uint64_t last_block_cycles = 0;
        std::uint64_t last_switched = 0;
        double last_window_value = 0.0;
        // Hysteresis.
        Cycle lcs_set_until = 0;

        /** Field list (ckpt/fields.h): the data fields only, so a
         * sample is restored in place and keeps its attachments. */
        template <typename V, typename T>
        friend ckpt::If<T, NodeSample>
        fields(const V &v, T &ns)
        {
            v(ns.last_injected_pkts);
            v(ns.last_block_cycles);
            v(ns.last_switched);
            v(ns.last_window_value);
            v(ns.lcs_set_until);
        }
    };

    std::size_t
    index(NodeId node, SubnetId s) const
    {
        return static_cast<std::size_t>(s) *
               static_cast<std::size_t>(mesh_.num_nodes()) +
               static_cast<std::size_t>(node);
    }

    std::size_t
    region_index(int region, SubnetId s) const
    {
        return static_cast<std::size_t>(s) *
               static_cast<std::size_t>(mesh_.num_regions()) +
               static_cast<std::size_t>(region);
    }

    double metric_value(NodeSample &ns, NodeId node, SubnetId s,
                        bool window_boundary);

    /** Rebuilds lcs_count_ and rcs_count_ from the bits. */
    CATNAP_COLD_PATH CATNAP_PHASE_WRITE void recount();

    const ConcentratedMesh &mesh_;
    int num_subnets_;
    CongestionConfig cfg_;
    EventSink *sink_ = nullptr;
    const std::vector<std::vector<std::uint8_t>> *live_ = nullptr;
    std::vector<NodeSample> samples_; // [subnet][node]
    std::vector<bool> lcs_;           // [subnet][node]
    std::vector<bool> rcs_latched_;   // [subnet][region]
    std::vector<int> lcs_count_;      // [subnet] LCS bits set
    std::vector<int> rcs_count_;      // [subnet] latched RCS bits set
    std::uint64_t rcs_transitions_ = 0;
    std::uint64_t rcs_latch_events_ = 0;
};

} // namespace catnap

#endif // CATNAP_CATNAP_CONGESTION_H
