#include "noc/nic.h"

#include <algorithm>

#include "catnap/subnet_select.h"
#include "ckpt/codec.h"
#include "common/log.h"
#include "fault/fault.h"
#include "noc/metrics.h"
#include "noc/routing.h"

namespace catnap {

namespace {

/** Fixed latency of the NI loopback path for dst == src packets. */
constexpr Cycle kLoopbackLatency = 4;

} // namespace

NetworkInterface::NetworkInterface(NodeId node, const SubnetParams &params,
                                   std::vector<Router *> routers,
                                   int queue_capacity_flits,
                                   const ConcentratedMesh &mesh,
                                   NetMetrics *metrics)
    : node_(node), params_(params), routers_(std::move(routers)),
      mesh_(mesh), metrics_(metrics),
      queue_capacity_flits_(queue_capacity_flits)
{
    CATNAP_ASSERT(!routers_.empty(), "NI needs at least one subnet router");
    const auto n = routers_.size();
    slots_.resize(n);
    local_credits_.assign(n * static_cast<std::size_t>(params_.num_vcs),
                          params_.vc_depth_flits);
    local_owner_.assign(n * static_cast<std::size_t>(params_.num_vcs), 0);
    injected_packets_per_subnet_.assign(n, 0);
    slot_free_scratch_.assign(n, true);
    adapters_.reserve(n);
    for (std::size_t s = 0; s < n; ++s) {
        adapters_.push_back(std::make_unique<LocalAdapter>(
            this, static_cast<SubnetId>(s)));
        routers_[s]->set_local_client(adapters_[s].get());
    }
}

NetworkInterface::~NetworkInterface() = default;

int &
NetworkInterface::credits(SubnetId s, VcId vc)
{
    return local_credits_[static_cast<std::size_t>(s)
                          * static_cast<std::size_t>(params_.num_vcs)
                          + static_cast<std::size_t>(vc)];
}

std::int64_t &
NetworkInterface::vc_owner(SubnetId s, VcId vc)
{
    return local_owner_[static_cast<std::size_t>(s)
                        * static_cast<std::size_t>(params_.num_vcs)
                        + static_cast<std::size_t>(vc)];
}

int
NetworkInterface::local_credit_count(SubnetId s, VcId vc) const
{
    return local_credits_[static_cast<std::size_t>(s)
                          * static_cast<std::size_t>(params_.num_vcs)
                          + static_cast<std::size_t>(vc)];
}

int
NetworkInterface::pending_local_credits(SubnetId s, VcId vc) const
{
    int count = 0;
    for (const auto &c : credit_events_) {
        if (c.subnet == s && c.vc == vc)
            ++count;
    }
    return count;
}

void
NetworkInterface::offer_packet(const PacketDesc &pkt)
{
    CATNAP_ASSERT(pkt.src == node_, "packet offered at wrong NI");
    if (metrics_)
        metrics_->note_offered(pkt.created, flits_of(pkt));
    if (pkt.dst == node_) {
        // NI loopback: the packet never enters the network.
        loopback_events_.push_back({pkt.created + kLoopbackLatency, pkt});
        return;
    }
    stash_.push_back(pkt);
}

void
NetworkInterface::evaluate(Cycle now)
{
    refill_queue(now);
    try_assign_head(now);
    stream_slots(now);
}

void
NetworkInterface::refill_queue(Cycle now)
{
    (void)now;
    while (!stash_.empty()) {
        const int flits = flits_of(stash_.front());
        if (flits > queue_capacity_flits_) {
            // A packet larger than the whole queue may only enter an
            // empty queue (and then occupies it alone).
            if (queue_flits_ > 0)
                break;
        } else if (queue_flits_ + flits > queue_capacity_flits_) {
            break;
        }
        queue_.push_back(stash_.front());
        queue_flits_ += flits;
        stash_.pop_front();
    }
}

void
NetworkInterface::try_assign_head(Cycle now)
{
    if (queue_.empty() || selector_ == nullptr)
        return;
    for (std::size_t s = 0; s < slots_.size(); ++s)
        slot_free_scratch_[s] = !slots_[s].active;
    const PacketDesc &head = queue_.front();
    // Injection pressure: queued flits, saturated upward when the
    // source-side stash is also backed up.
    int backlog = queue_flits_;
    if (!stash_.empty())
        backlog += queue_capacity_flits_;
    const SubnetId s = selector_->select(node_, head, slot_free_scratch_,
                                         backlog, now);
    if (s < 0)
        return;
    CATNAP_ASSERT(s < static_cast<SubnetId>(slots_.size()),
                  "selector chose invalid subnet ", s);
    InjectSlot &slot = slots_[static_cast<std::size_t>(s)];
    CATNAP_ASSERT(!slot.active, "selector chose a busy slot");
    slot.active = true;
    slot.pkt = head;
    slot.total_flits = flits_of(head);
    slot.next_seq = 0;
    slot.vc = kInvalidVc;
    queue_flits_ -= slot.total_flits;
    queue_.pop_front();
    // Announce the packet and send the wake signal to the local router
    // so its wake-up overlaps the VC allocation / streaming setup.
    Router *rtr = routers_[static_cast<std::size_t>(s)];
    rtr->note_expected_packet(Direction::kLocal);
    rtr->request_wakeup(Direction::kLocal);
    ++injected_packets_per_subnet_[static_cast<std::size_t>(s)];
    if (fault_)
        track_packet(slot.pkt, now);
    if (sink_)
        sink_->on_event({now, EventKind::kSubnetSelect, node_, s,
                         slot.total_flits, slot.pkt.dst, slot.pkt.id});
}

void
NetworkInterface::stream_slots(Cycle now)
{
    for (std::size_t s = 0; s < slots_.size(); ++s) {
        InjectSlot &slot = slots_[s];
        if (!slot.active)
            continue;
        Router *rtr = routers_[s];
        if (!rtr->can_accept_at(Direction::kLocal, now + 1))
            continue;
        // First flit: allocate a VC on the router's local input port.
        if (slot.vc == kInvalidVc) {
            const int cls =
                static_cast<int>(slot.pkt.mc) % params_.num_classes;
            const int base = params_.first_vc_of_class(cls);
            for (int v = 0; v < params_.vcs_per_class(); ++v) {
                if (vc_owner(static_cast<SubnetId>(s), base + v) == 0) {
                    slot.vc = base + v;
                    vc_owner(static_cast<SubnetId>(s), slot.vc) =
                        static_cast<std::int64_t>(slot.pkt.id) + 1;
                    break;
                }
            }
            if (slot.vc == kInvalidVc)
                continue; // no free VC this cycle
        }
        if (credits(static_cast<SubnetId>(s), slot.vc) <= 0)
            continue;

        Flit f;
        f.pkt = slot.pkt.id;
        f.src = slot.pkt.src;
        f.dst = slot.pkt.dst;
        f.mc = slot.pkt.mc;
        f.seq = static_cast<std::int16_t>(slot.next_seq);
        f.pkt_flits = static_cast<std::int16_t>(slot.total_flits);
        f.out_dir = xy_route(mesh_, node_, slot.pkt.dst);
        f.vc = slot.vc;
        f.created = slot.pkt.created;
        f.injected = (slot.next_seq == 0) ? now : slot.head_injected;
        f.user = slot.pkt.user;

        if (slot.next_seq == 0)
            slot.head_injected = now;

        --credits(static_cast<SubnetId>(s), slot.vc);
        rtr->deliver_flit(f, Direction::kLocal, now + 1);
        rtr->note_ni_flit();
        if (metrics_)
            metrics_->note_injected_flit(static_cast<SubnetId>(s), now);
        if (sink_)
            sink_->on_event({now, EventKind::kFlitInject, node_,
                             static_cast<SubnetId>(s), f.seq, f.pkt_flits,
                             f.pkt});

        ++slot.next_seq;
        if (slot.next_seq == slot.total_flits) {
            vc_owner(static_cast<SubnetId>(s), slot.vc) = 0;
            slot.active = false;
            slot.vc = kInvalidVc;
        }
    }
}

void
NetworkInterface::commit(Cycle now)
{
    // Credits from the local routers.
    {
        std::size_t kept = 0;
        for (auto &c : credit_events_) {
            if (c.ready > now) {
                credit_events_[kept++] = c;
                continue;
            }
            ++credits(c.subnet, c.vc);
            CATNAP_ASSERT(credits(c.subnet, c.vc) <= params_.vc_depth_flits,
                          "NI credit overflow at node ", node_);
        }
        credit_events_.resize(kept);
    }
    // Ejected flits.
    {
        std::size_t kept = 0;
        for (auto &e : eject_events_) {
            if (e.ready > now) {
                eject_events_[kept++] = e;
                continue;
            }
            routers_[static_cast<std::size_t>(e.subnet)]->note_ni_flit();
            if (metrics_)
                metrics_->note_ejected_flit(e.subnet);
            if (sink_)
                sink_->on_event({now, EventKind::kFlitEject, node_,
                                 e.subnet, e.flit.seq,
                                 e.flit.is_tail() ? 1 : 0, e.flit.pkt});
            if (e.flit.is_tail()) {
                if (metrics_) {
                    metrics_->note_ejected_packet(
                        e.flit.created, e.flit.injected, now,
                        e.flit.pkt_flits,
                        mesh_.hop_distance(e.flit.src, e.flit.dst));
                }
                if (fault_)
                    fault_->note_delivered(e.flit);
                if (packet_sink_)
                    packet_sink_(e.flit, now);
            }
        }
        eject_events_.resize(kept);
    }
    // Loopback deliveries.
    {
        std::size_t kept = 0;
        for (auto &l : loopback_events_) {
            if (l.ready > now) {
                loopback_events_[kept++] = l;
                continue;
            }
            if (metrics_) {
                metrics_->note_ejected_packet(l.pkt.created, l.pkt.created,
                                              now, flits_of(l.pkt), 0);
            }
            if (packet_sink_) {
                Flit tail;
                tail.pkt = l.pkt.id;
                tail.src = l.pkt.src;
                tail.dst = l.pkt.dst;
                tail.mc = l.pkt.mc;
                tail.seq = static_cast<std::int16_t>(flits_of(l.pkt) - 1);
                tail.pkt_flits = static_cast<std::int16_t>(flits_of(l.pkt));
                tail.created = l.pkt.created;
                tail.injected = l.pkt.created;
                tail.user = l.pkt.user;
                packet_sink_(tail, now);
            }
        }
        loopback_events_.resize(kept);
    }

    if (fault_)
        scan_packet_timeouts(now);
}

void
NetworkInterface::track_packet(const PacketDesc &pkt, Cycle now)
{
    Outstanding &e = outstanding_[pkt.id];
    e.pkt = pkt;
    e.deadline = now + fault_->tuning().packet_timeout;
    // attempts/lost persist across re-bindings of a retransmitted packet.
}

void
NetworkInterface::purge_subnet(SubnetId s, std::vector<Flit> *dropped,
                               std::vector<PacketDesc> *lost_slot_pkts)
{
    {
        std::size_t kept = 0;
        for (auto &e : eject_events_) {
            if (e.subnet != s) {
                eject_events_[kept++] = e;
                continue;
            }
            dropped->push_back(e.flit);
        }
        eject_events_.resize(kept);
    }
    {
        std::size_t kept = 0;
        for (auto &c : credit_events_) {
            if (c.subnet != s)
                credit_events_[kept++] = c;
        }
        credit_events_.resize(kept);
    }
    for (VcId vc = 0; vc < params_.num_vcs; ++vc) {
        credits(s, vc) = params_.vc_depth_flits;
        vc_owner(s, vc) = 0;
    }
    InjectSlot &slot = slots_[static_cast<std::size_t>(s)];
    if (slot.active) {
        lost_slot_pkts->push_back(slot.pkt);
        slot = InjectSlot{};
    }
}

void
NetworkInterface::note_packet_lost(PacketId id, Cycle now)
{
    auto it = outstanding_.find(id);
    if (it == outstanding_.end())
        return; // already delivered (or never tracked)
    Outstanding &e = it->second;
    if (!e.lost) {
        e.lost = true;
        ++lost_outstanding_;
    }
    const Cycle retry_at = now + fault_->tuning().retransmit_delay;
    if (retry_at < e.deadline)
        e.deadline = retry_at;
}

void
NetworkInterface::ack_packet(PacketId id)
{
    auto it = outstanding_.find(id);
    if (it == outstanding_.end())
        return;
    if (it->second.lost)
        --lost_outstanding_;
    outstanding_.erase(it);
}

void
NetworkInterface::scan_packet_timeouts(Cycle now)
{
    const FaultTuning &t = fault_->tuning();
    for (auto it = outstanding_.begin(); it != outstanding_.end();) {
        Outstanding &e = it->second;
        if (now < e.deadline) {
            ++it;
            continue;
        }
        if (!e.lost) {
            // Slow but not known lost: note the timeout and re-arm. The
            // flits are still conserved somewhere in the network.
            e.deadline = now + t.packet_timeout;
            if (sink_)
                sink_->on_event({now, EventKind::kPacketTimeout, node_, 0,
                                 e.attempts, 0, e.pkt.id});
            ++it;
            continue;
        }
        if (e.attempts >= t.max_retransmits ||
            fault_->health().num_healthy() == 0) {
            if (metrics_)
                metrics_->note_dropped_packet();
            if (sink_)
                sink_->on_event({now, EventKind::kPacketDrop, node_, 0,
                                 e.attempts, 0, e.pkt.id});
            --lost_outstanding_;
            it = outstanding_.erase(it);
            continue;
        }
        ++e.attempts;
        e.lost = false;
        --lost_outstanding_;
        e.deadline = now + t.packet_timeout;
        // Re-offer through the stash WITHOUT note_offered: the packet
        // was already counted when first offered, and `offered ==
        // ejected + dropped` stays a distinct-packet identity.
        stash_.push_back(e.pkt);
        if (metrics_)
            metrics_->note_retransmit();
        if (sink_)
            sink_->on_event({now, EventKind::kPacketRetransmit, node_, 0,
                             e.attempts, 0, e.pkt.id});
        ++it;
    }
}

CATNAP_PHASE_READ void
NetworkInterface::Serialize(ckpt::Writer &w) const
{
    ckpt::put(w, stash_);
    ckpt::put(w, queue_);
    w.put_i32(queue_flits_);
    ckpt::put(w, slots_);
    ckpt::put(w, local_credits_);
    ckpt::put(w, local_owner_);
    ckpt::put(w, credit_events_);
    ckpt::put(w, eject_events_);
    ckpt::put(w, loopback_events_);
    ckpt::put(w, injected_packets_per_subnet_);
    // std::map iterates in ascending PacketId order: deterministic bytes.
    ckpt::put(w, outstanding_);
    w.put_i32(lost_outstanding_);
}

CATNAP_PHASE_WRITE void
NetworkInterface::Deserialize(ckpt::Reader &r)
{
    stash_ = ckpt::take<std::deque<PacketDesc>>(r);
    queue_ = ckpt::take<std::deque<PacketDesc>>(r);
    queue_flits_ = r.take_i32();
    slots_ = ckpt::take_exact(r, slots_, "NI injection slot");
    local_credits_ = ckpt::take_exact(r, local_credits_, "NI local credit");
    local_owner_ = ckpt::take_exact(r, local_owner_, "NI local VC owner");
    credit_events_ = ckpt::take<std::vector<CreditEvent>>(r);
    eject_events_ = ckpt::take<std::vector<EjectEvent>>(r);
    loopback_events_ = ckpt::take<std::vector<LoopbackEvent>>(r);
    injected_packets_per_subnet_ =
        ckpt::take_exact(r, injected_packets_per_subnet_,
                         "NI per-subnet packet counter");
    outstanding_ = ckpt::take<std::map<PacketId, Outstanding>>(r);
    lost_outstanding_ = r.take_i32();
}

} // namespace catnap
