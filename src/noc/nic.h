/**
 * @file
 * Node network interface (NI). Four tiles share one NI (Figure 3); the
 * NI owns the shared injection queue, performs subnet selection for the
 * packet at the queue head, flitizes packets into the chosen subnet's
 * local router port, and reassembles ejected packets.
 *
 * The NI is the upstream side of each local router port: it mirrors the
 * per-VC credit counters and VC ownership for the local input port of
 * every subnet router attached to this node.
 */
#ifndef CATNAP_NOC_NIC_H
#define CATNAP_NOC_NIC_H

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "ckpt/fwd.h"
#include "common/phase.h"
#include "common/types.h"
#include "noc/buffer.h"
#include "noc/flit.h"
#include "noc/params.h"
#include "noc/router.h"

namespace catnap {

class SubnetSelector;
class NetMetrics;
class FaultController;

/**
 * The network interface of one node. See the file comment for its
 * responsibilities.
 */
class NetworkInterface
{
  public:
    /** Invoked when a packet's tail flit finishes ejecting at this NI. */
    using PacketSink = std::function<void(const Flit &tail, Cycle now)>;

    /**
     * Creates the NI.
     *
     * @param node node this NI serves
     * @param params subnet parameters (flit width, VC structure, ...)
     * @param routers local router of each subnet, lowest order first
     * @param queue_capacity_flits NI injection queue capacity (paper: 16)
     * @param mesh topology, for initial look-ahead route computation
     * @param metrics shared metric collector (not owned, may be null)
     */
    NetworkInterface(NodeId node, const SubnetParams &params,
                     std::vector<Router *> routers,
                     int queue_capacity_flits,
                     const ConcentratedMesh &mesh, NetMetrics *metrics);

    ~NetworkInterface();

    NetworkInterface(const NetworkInterface &) = delete;
    NetworkInterface &operator=(const NetworkInterface &) = delete;

    /** Sets the subnet-selection policy (not owned; shared by all NIs). */
    void set_selector(SubnetSelector *sel) { selector_ = sel; }

    /** Attaches the trace-event sink (null disables emission). */
    void set_sink(EventSink *sink) { sink_ = sink; }

    /** Sets the sink notified on every completed packet (may be empty). */
    void set_packet_sink(PacketSink sink) { packet_sink_ = std::move(sink); }

    /**
     * Enables fault-aware end-to-end delivery tracking (src/fault;
     * DESIGN.md §10): every non-loopback packet is tracked from subnet
     * binding until the controller acks its tail ejection, with timeout,
     * retransmission, and drop handling in commit(). Not owned.
     */
    void set_fault(FaultController *fault) { fault_ = fault; }

    /**
     * Offers a new packet from a traffic source or the app substrate.
     * The source-side stash is unbounded (it models cores/generators
     * backing off); the bounded NI queue drains from it in order.
     * Packets with dst == src bypass the network through the NI loopback
     * path with a fixed small latency.
     */
    CATNAP_SHARD_SAFE CATNAP_PHASE_WRITE void offer_packet(const PacketDesc &pkt);

    /** Phase 1: queue refill, subnet selection, flit injection. */
    CATNAP_PHASE_READ void evaluate(Cycle now);

    /** Phase 2: apply matured ejections, credits, and loopbacks. */
    CATNAP_PHASE_WRITE void commit(Cycle now);

    // -- Fault model (src/fault) ------------------------------------------

    /**
     * A hard fault killed subnet @p s: drops this NI's pending eject
     * flits from it into @p dropped, aborts a streaming slot into
     * @p lost_slot_pkts, discards its credit events, and resets the
     * local-port credit/VC mirror. Called by the fault controller for
     * every NI when a subnet fails.
     */
    CATNAP_SHARD_SAFE CATNAP_PHASE_WRITE void purge_subnet(SubnetId s,
                                         std::vector<Flit> *dropped,
                                         std::vector<PacketDesc> *lost_slot_pkts);

    /**
     * Source-side loss notification: packet @p id's in-network flits
     * were purged. The packet becomes eligible for retransmission after
     * the tuning's retransmit_delay.
     */
    CATNAP_SHARD_SAFE CATNAP_PHASE_WRITE void note_packet_lost(PacketId id, Cycle now);

    /** The destination saw packet @p id's tail eject; stop tracking. */
    CATNAP_SHARD_SAFE CATNAP_PHASE_WRITE void ack_packet(PacketId id);

    // -- Observability ----------------------------------------------------

    /** Flits currently occupying the bounded NI injection queue. */
    int inj_queue_flits() const { return queue_flits_; }

    /** Packets in the bounded NI injection queue. */
    std::size_t inj_queue_packets() const { return queue_.size(); }

    /** Packets waiting in the unbounded source stash. */
    std::size_t stash_packets() const { return stash_.size(); }

    /** Packets injected into subnet @p s by this NI (for the IR metric). */
    std::uint64_t
    injected_packets(SubnetId s) const
    {
        return injected_packets_per_subnet_[static_cast<std::size_t>(s)];
    }

    /** True if subnet @p s's injection slot is currently streaming. */
    bool
    slot_busy(SubnetId s) const
    {
        return slots_[static_cast<std::size_t>(s)].active;
    }

    /** Node this NI serves. */
    NodeId node() const { return node_; }

    /**
     * True when the NI holds no work: empty stash and queue, no packet
     * streaming, and no pending ejection or loopback events.
     */
    bool
    idle() const
    {
        if (!stash_.empty() || !queue_.empty())
            return false;
        // Purged packets awaiting retransmission hold no flits anywhere,
        // so they must keep the network non-quiescent themselves.
        if (lost_outstanding_ > 0)
            return false;
        for (const auto &slot : slots_)
            if (slot.active)
                return false;
        return eject_events_.empty() && loopback_events_.empty();
    }

    /** Number of flits a packet occupies on this network's links. */
    int
    flits_of(const PacketDesc &pkt) const
    {
        return flits_per_packet(pkt.size_bits, params_.link_width_bits);
    }

    // -- Invariant-engine accessors (src/check) ---------------------------

    /** Mirrored credit count for the local port of subnet @p s, VC @p vc. */
    int local_credit_count(SubnetId s, VcId vc) const;

    /** In-flight local-port credits for subnet @p s, VC @p vc. */
    int pending_local_credits(SubnetId s, VcId vc) const;

    /** Ejected flits not yet applied (in the eject event queue). */
    int pending_eject_flits() const
    {
        return static_cast<int>(eject_events_.size());
    }

    // -- Checkpointing (src/ckpt; DESIGN.md §13) ---------------------------

    /**
     * Appends every data member that evolves during simulation (stash,
     * queue, streaming slots, credit mirror, in-flight events, delivery
     * tracking). Wiring (routers, selector, sinks, fault controller,
     * adapters) is rebuilt by the MultiNoc constructor on restore.
     */
    CATNAP_COLD_PATH CATNAP_PHASE_READ void Serialize(ckpt::Writer &w) const;

    /** Restores what Serialize() wrote into an identically configured NI. */
    CATNAP_COLD_PATH CATNAP_PHASE_WRITE void Deserialize(ckpt::Reader &r);

  private:
    /** Per-subnet packet-streaming slot. */
    struct InjectSlot
    {
        bool active = false;
        PacketDesc pkt;
        int total_flits = 0;
        int next_seq = 0;
        VcId vc = kInvalidVc;
        Cycle head_injected = 0;

        /** Field list (ckpt/fields.h). */
        template <typename V, typename T>
        friend ckpt::If<T, InjectSlot>
        fields(const V &v, T &s)
        {
            v(s.active);
            v(s.pkt);
            v(s.total_flits);
            v(s.next_seq);
            v(s.vc);
            v(s.head_injected);
        }
    };

    /** Adapter: the router's local-port client for one subnet. */
    class LocalAdapter final : public LocalPortClient
    {
      public:
        LocalAdapter(NetworkInterface *ni, SubnetId s) : ni_(ni), s_(s) {}
        CATNAP_SHARD_SAFE CATNAP_PHASE_READ void
        return_local_credit(VcId vc, Cycle ready) override
        {
            ni_->credit_events_.push_back({ready, s_, vc});
        }
        CATNAP_SHARD_SAFE CATNAP_PHASE_READ void
        eject_flit(const Flit &flit, Cycle ready) override
        {
            ni_->eject_events_.push_back({ready, s_, flit});
        }

      private:
        NetworkInterface *ni_;
        SubnetId s_;
    };

    struct CreditEvent
    {
        Cycle ready;
        SubnetId subnet;
        VcId vc;

        /** Field list (ckpt/fields.h). */
        template <typename V, typename T>
        friend ckpt::If<T, CreditEvent>
        fields(const V &v, T &c)
        {
            v(c.ready);
            v(c.subnet);
            v(c.vc);
        }
    };

    struct EjectEvent
    {
        Cycle ready;
        SubnetId subnet;
        Flit flit;

        /** Field list (ckpt/fields.h). */
        template <typename V, typename T>
        friend ckpt::If<T, EjectEvent>
        fields(const V &v, T &e)
        {
            v(e.ready);
            v(e.subnet);
            v(e.flit);
        }
    };

    struct LoopbackEvent
    {
        Cycle ready;
        PacketDesc pkt;

        /** Field list (ckpt/fields.h). */
        template <typename V, typename T>
        friend ckpt::If<T, LoopbackEvent>
        fields(const V &v, T &l)
        {
            v(l.ready);
            v(l.pkt);
        }
    };

    /** End-to-end delivery tracking state for one offered packet. */
    struct Outstanding
    {
        PacketDesc pkt;
        Cycle deadline = 0;
        int attempts = 0;   ///< retransmissions performed so far
        bool lost = false;  ///< flits purged; awaiting retransmit/drop

        /** Field list (ckpt/fields.h). */
        template <typename V, typename T>
        friend ckpt::If<T, Outstanding>
        fields(const V &v, T &o)
        {
            v(o.pkt);
            v(o.deadline);
            v(o.attempts);
            v(o.lost);
        }
    };

    CATNAP_PHASE_READ void refill_queue(Cycle now);
    CATNAP_PHASE_READ void try_assign_head(Cycle now);
    CATNAP_PHASE_READ void stream_slots(Cycle now);
    CATNAP_PHASE_WRITE void scan_packet_timeouts(Cycle now);
    CATNAP_PHASE_READ void track_packet(const PacketDesc &pkt, Cycle now);
    int &credits(SubnetId s, VcId vc);
    std::int64_t &vc_owner(SubnetId s, VcId vc);

    NodeId node_;
    const SubnetParams &params_;
    std::vector<Router *> routers_;
    const ConcentratedMesh &mesh_;
    NetMetrics *metrics_;
    SubnetSelector *selector_ = nullptr;
    EventSink *sink_ = nullptr;
    PacketSink packet_sink_;

    int queue_capacity_flits_;
    std::deque<PacketDesc> stash_;   ///< unbounded source-side backlog
    std::deque<PacketDesc> queue_;   ///< bounded NI injection queue
    int queue_flits_ = 0;

    std::vector<InjectSlot> slots_;
    std::vector<int> local_credits_;        // [subnet][vc]
    std::vector<std::int64_t> local_owner_; // [subnet][vc], pkt id + 1
    std::vector<std::unique_ptr<LocalAdapter>> adapters_;

    std::vector<CreditEvent> credit_events_;
    std::vector<EjectEvent> eject_events_;
    std::vector<LoopbackEvent> loopback_events_;

    std::vector<std::uint64_t> injected_packets_per_subnet_;
    std::vector<bool> slot_free_scratch_;

    FaultController *fault_ = nullptr;
    std::map<PacketId, Outstanding> outstanding_;
    int lost_outstanding_ = 0;
};

} // namespace catnap

#endif // CATNAP_NOC_NIC_H
