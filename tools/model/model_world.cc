#include "model/model_world.h"

#include <algorithm>

#include "common/log.h"
#include "noc/routing.h"

namespace catnap_model {

using catnap::Cycle;
using catnap::Direction;
using catnap::EventKind;
using catnap::Flit;
using catnap::NodeId;
using catnap::PowerState;
using catnap::Router;
using catnap::SubnetId;

namespace {

/** Structural parameters of the explored configuration: the smallest
 * instance in which every protocol mechanism (VC backpressure, multi-hop
 * look-ahead wakes, break-even accounting, idle detect, RCS latching)
 * still has observable effect. */
catnap::SubnetParams
model_params()
{
    catnap::SubnetParams p;
    p.link_width_bits = 128;
    p.num_vcs = 1;
    p.vc_depth_flits = 1;
    p.num_classes = 1;
    p.link_delay = 1;
    p.st_delay = 1;
    p.credit_delay = 1;
    p.t_wakeup = 2;
    p.t_breakeven = 3;
    p.t_idle_detect = 1;
    p.port_gating = false;
    return p;
}

catnap::CongestionConfig
model_congestion()
{
    catnap::CongestionConfig c;
    c.metric = catnap::CongestionMetric::kBufferMax;
    c.threshold = 0.5; // any buffered flit congests (depth is 1)
    c.window = 4;
    c.lcs_hold = 2;
    c.use_rcs = true;
    c.rcs_period = 2;
    return c;
}

catnap::FaultTuning
model_tuning()
{
    catnap::FaultTuning t;
    t.t_wake_timeout = 2;
    t.max_wake_retries = 1;
    t.backoff_cap_exp = 1;
    return t;
}

} // namespace

std::string
model_event_name(const ModelEvent &ev)
{
    const auto s = std::to_string(ev.a);
    const auto n = std::to_string(ev.b);
    switch (ev.kind) {
      case EventKindM::kTick:       return "tick";
      case EventKindM::kAnnounce:   return "announce(slot" + s + ")";
      case EventKindM::kLoseWake:   return "lose-wake(s" + s + ",n" + n + ")";
      case EventKindM::kStickWake:  return "stick-wake(s" + s + ",n" + n + ")";
      case EventKindM::kRcsGlitch:  return "rcs-glitch(s" + s + ")";
      case EventKindM::kKillSubnet: return "kill-subnet(s" + s + ")";
    }
    return "?";
}

ModelWorld::ModelWorld(const ModelConfig &cfg)
    : cfg_(cfg), mesh_(kWidth, kHeight, 1, /*region_width=*/2, false),
      params_(model_params()), tuning_(model_tuning()),
      congestion_(mesh_, kSubnets, model_congestion()),
      monitor_(kSubnets), budget_(cfg.fault_budget)
{
    for (SubnetId s = 0; s < kSubnets; ++s) {
        for (NodeId n = 0; n < kNodes; ++n) {
            routers_[static_cast<std::size_t>(s)]
                    [static_cast<std::size_t>(n)] =
                std::make_unique<Router>(n, s, params_, mesh_);
        }
    }
    policy_ =
        std::make_unique<catnap::CatnapGatingPolicy>(mesh_, &congestion_);
    for (SubnetId s = 0; s < kSubnets; ++s) {
        std::vector<Router *> subnet;
        for (NodeId n = 0; n < kNodes; ++n) {
            Router *r = routers_[static_cast<std::size_t>(s)]
                                [static_cast<std::size_t>(n)].get();
            for (int p = 1; p < catnap::kNumPorts; ++p) {
                const Direction d = catnap::direction_from_index(p);
                const NodeId nbr = mesh_.neighbor(n, d);
                r->connect(d, nbr == catnap::kInvalidNode
                                  ? nullptr
                                  : routers_[static_cast<std::size_t>(s)]
                                            [static_cast<std::size_t>(nbr)]
                                                .get());
            }
            r->set_local_client(this);
            if (cfg_.mutate_unsafe_sleep)
                r->set_model_unsafe_sleep_for_test(true);
            congestion_.attach(n, s, r, nullptr);
            subnet.push_back(r);
        }
        policy_->attach(s, std::move(subnet));
    }
    policy_->engage_fault_mode(this);

    // Two opposite-corner single-flit flows per subnet. Their X-Y paths
    // are disjoint in (node, inport), so buffer occupancy alone fully
    // determines which flit sits where (state-vector exactness).
    for (int i = 0; i < kNumSlots; ++i) {
        Slot &sl = slots_[static_cast<std::size_t>(i)];
        sl.subnet = static_cast<SubnetId>(i / kSlotsPerSubnet);
        sl.src = (i % kSlotsPerSubnet) == 0 ? 0 : kNodes - 1;
        sl.dst = (i % kSlotsPerSubnet) == 0 ? kNodes - 1 : 0;
        sl.phase = SlotPhase::kIdle;
    }

    for (auto &sub : prev_state_)
        sub.fill(PowerState::kActive);
    for (auto &sub : shadow_sleep_start_)
        sub.fill(0);
    for (auto &sub : prev_csc_)
        sub.fill(0);
}

void
ModelWorld::set_sink(catnap::EventSink *sink)
{
    sink_ = sink;
    for (auto &sub : routers_)
        for (auto &r : sub)
            r->set_sink(sink);
    congestion_.set_sink(sink);
    monitor_.set_sink(sink);
}

bool
ModelWorld::event_enabled(const ModelEvent &ev) const
{
    const catnap::HealthMask &mask = monitor_.mask();
    switch (ev.kind) {
      case EventKindM::kTick:
        return true;
      case EventKindM::kAnnounce: {
        const Slot &sl = slots_[static_cast<std::size_t>(ev.a)];
        return sl.phase == SlotPhase::kIdle && mask.healthy(sl.subnet);
      }
      case EventKindM::kLoseWake: {
        if (budget_ <= 0 || !mask.healthy(ev.a))
            return false;
        const Router &r = router(ev.a, ev.b);
        return !r.failed() &&
               !lose_armed_[static_cast<std::size_t>(ev.a)]
                           [static_cast<std::size_t>(ev.b)] &&
               r.power_state() == PowerState::kSleep;
      }
      case EventKindM::kStickWake: {
        if (budget_ <= 0 || !mask.healthy(ev.a))
            return false;
        // A stuck wake on the promoted (never-sleep) subnet can never
        // manifest: its routers only wake while that subnet is demoted,
        // which the remaining budget cannot cause. Prune the dead branch.
        if (ev.a == monitor_.never_sleep_subnet())
            return false;
        const Router &r = router(ev.a, ev.b);
        return !r.failed() && !r.wake_stuck();
      }
      case EventKindM::kRcsGlitch: {
        if (budget_ <= 0 || !mask.healthy(ev.a))
            return false;
        // Only a subnet that gates someone's sleep has an RCS worth
        // glitching: it must be the next-lower healthy subnet of some
        // healthy higher-order subnet.
        for (SubnetId h = 0; h < kSubnets; ++h) {
            if (mask.healthy(h) && mask.next_lower_healthy(h) == ev.a)
                return true;
        }
        return false;
      }
      case EventKindM::kKillSubnet:
        return budget_ > 0 && mask.healthy(ev.a);
    }
    return false;
}

std::vector<ModelEvent>
ModelWorld::enabled_events() const
{
    std::vector<ModelEvent> out;
    out.push_back(ModelEvent{EventKindM::kTick, 0, 0});
    for (int i = 0; i < kNumSlots; ++i) {
        const ModelEvent ev{EventKindM::kAnnounce, i, 0};
        if (event_enabled(ev))
            out.push_back(ev);
    }
    for (SubnetId s = 0; s < kSubnets; ++s) {
        for (NodeId n = 0; n < kNodes; ++n) {
            const ModelEvent lose{EventKindM::kLoseWake, s, n};
            if (event_enabled(lose))
                out.push_back(lose);
        }
    }
    for (SubnetId s = 0; s < kSubnets; ++s) {
        for (NodeId n = 0; n < kNodes; ++n) {
            const ModelEvent stick{EventKindM::kStickWake, s, n};
            if (event_enabled(stick))
                out.push_back(stick);
        }
    }
    for (SubnetId s = 0; s < kSubnets; ++s) {
        const ModelEvent glitch{EventKindM::kRcsGlitch, s, 0};
        if (event_enabled(glitch))
            out.push_back(glitch);
    }
    for (SubnetId s = 0; s < kSubnets; ++s) {
        const ModelEvent kill{EventKindM::kKillSubnet, s, 0};
        if (event_enabled(kill))
            out.push_back(kill);
    }
    return out;
}

void
ModelWorld::apply_event(const ModelEvent &ev)
{
    switch (ev.kind) {
      case EventKindM::kTick:
        break;
      case EventKindM::kAnnounce: {
        Slot &sl = slots_[static_cast<std::size_t>(ev.a)];
        sl.phase = SlotPhase::kWaiting;
        // The NI-side look-ahead (Section 3.3): binding a packet to a
        // subnet announces it at the source router and asserts the wake
        // signal -- exactly what NetworkInterface::try_assign_head does.
        Router *r = routers_[static_cast<std::size_t>(sl.subnet)]
                            [static_cast<std::size_t>(sl.src)].get();
        r->note_expected_packet(Direction::kLocal);
        r->request_wakeup(Direction::kLocal);
        break;
      }
      case EventKindM::kLoseWake:
        lose_armed_[static_cast<std::size_t>(ev.a)]
                   [static_cast<std::size_t>(ev.b)] = true;
        --budget_;
        break;
      case EventKindM::kStickWake:
        routers_[static_cast<std::size_t>(ev.a)]
                [static_cast<std::size_t>(ev.b)]->set_wake_stuck(true);
        --budget_;
        if (sink_)
            sink_->on_event({now_, EventKind::kFaultInjected, ev.b, ev.a,
                             static_cast<std::int32_t>(
                                 catnap::FaultKind::kWakeStuck),
                             0, 0});
        break;
      case EventKindM::kRcsGlitch:
        congestion_.glitch_rcs_for_fault(0, ev.a, now_);
        --budget_;
        break;
      case EventKindM::kKillSubnet:
        fail_subnet(ev.a, 0, now_);
        --budget_;
        break;
    }

    inject_waiting_slots();
    for (auto &sub : routers_)
        for (auto &r : sub)
            r->evaluate(now_);
    for (auto &sub : routers_)
        for (auto &r : sub)
            r->commit(now_);
    congestion_.update(now_);
    policy_->step(now_);

    // Shadow sleep accounting (property P5): every Sleep->Wakeup edge
    // must credit exactly max(0, period - t_breakeven) compensated
    // sleep cycles.
    for (SubnetId s = 0; s < kSubnets; ++s) {
        for (NodeId n = 0; n < kNodes; ++n) {
            const auto si = static_cast<std::size_t>(s);
            const auto ni = static_cast<std::size_t>(n);
            const Router &r = *routers_[si][ni];
            const PowerState cur = r.power_state();
            const PowerState prev = prev_state_[si][ni];
            // This step ends cycle now_, so now_ + 1 cycles have run.
            const std::int64_t csc =
                r.activity(now_ + 1).compensated_sleep_cycles;
            if (prev != PowerState::kSleep && cur == PowerState::kSleep)
                shadow_sleep_start_[si][ni] = now_;
            if (!r.failed() && prev == PowerState::kSleep &&
                cur == PowerState::kWakeup && !accounting_error_) {
                const auto period = static_cast<std::int64_t>(
                    now_ - shadow_sleep_start_[si][ni]);
                const std::int64_t expected = std::max<std::int64_t>(
                    0, period - params_.t_breakeven);
                const std::int64_t actual = csc - prev_csc_[si][ni];
                if (actual != expected) {
                    accounting_error_ = true;
                    accounting_detail_ =
                        "router (s" + std::to_string(s) + ",n" +
                        std::to_string(n) + ") slept " +
                        std::to_string(period) + " cycles but credited " +
                        std::to_string(actual) + " CSC (expected " +
                        std::to_string(expected) + ")";
                }
            }
            prev_csc_[si][ni] = csc;
            prev_state_[si][ni] = cur;
        }
    }

    ++now_;
}

void
ModelWorld::inject_waiting_slots()
{
    for (int i = 0; i < kNumSlots; ++i) {
        Slot &sl = slots_[static_cast<std::size_t>(i)];
        if (sl.phase != SlotPhase::kWaiting)
            continue;
        Router *r = routers_[static_cast<std::size_t>(sl.subnet)]
                            [static_cast<std::size_t>(sl.src)].get();
        if (!r->can_accept_at(Direction::kLocal, now_))
            continue;
        if (r->vc_occupancy(Direction::kLocal, 0) +
                r->pending_arrivals_for(Direction::kLocal, 0) >=
            params_.vc_depth_flits) {
            continue;
        }
        Flit f;
        f.pkt = static_cast<catnap::PacketId>(i) + 1;
        f.src = sl.src;
        f.dst = sl.dst;
        f.mc = catnap::MessageClass::kRequest;
        f.seq = 0;
        f.pkt_flits = 1;
        f.out_dir = catnap::xy_route(mesh_, sl.src, sl.dst);
        f.vc = 0;
        f.created = now_;
        f.injected = now_;
        r->deliver_flit(f, Direction::kLocal, now_);
        sl.phase = SlotPhase::kInNet;
        if (sink_)
            sink_->on_event({now_, EventKind::kFlitInject, sl.src,
                             sl.subnet, 0, 1, f.pkt});
    }
}

void
ModelWorld::fail_subnet(SubnetId s, NodeId root, Cycle now)
{
    const auto si = static_cast<std::size_t>(s);
    std::vector<Flit> dropped;
    for (auto &r : routers_[si])
        r->fail(&dropped, now);
    for (auto &sl : slots_) {
        if (sl.subnet == s)
            sl.phase = SlotPhase::kIdle;
    }
    lose_armed_[si].fill(false);
    monitor_.mark_failed(s, root, now);
}

bool
ModelWorld::intercept_wake(Router *router, Cycle now)
{
    if (router->failed())
        return true; // nothing left to wake
    const auto si = static_cast<std::size_t>(router->subnet());
    const auto ni = static_cast<std::size_t>(router->node());
    if (lose_armed_[si][ni]) {
        lose_armed_[si][ni] = false; // one-shot: the next wake is lost
        if (sink_)
            sink_->on_event({now, EventKind::kFaultInjected,
                             router->node(), router->subnet(),
                             static_cast<std::int32_t>(
                                 catnap::FaultKind::kLostWake),
                             0, 0});
        return true;
    }
    return false;
}

void
ModelWorld::escalate_wake_failure(Router *router, Cycle now)
{
    fail_subnet(router->subnet(), router->node(), now);
}

void
ModelWorld::note_wake_retry(const Router &router, int retry, Cycle backoff,
                            Cycle now)
{
    if (sink_)
        sink_->on_event({now, EventKind::kWakeRetry, router.node(),
                         router.subnet(), retry,
                         static_cast<std::int32_t>(backoff), 0});
}

void
ModelWorld::return_local_credit(catnap::VcId vc, Cycle ready)
{
    // Injection is gated on the live buffer occupancy instead of a
    // mirrored credit counter, so the returned credit needs no tracking.
    (void)vc;
    (void)ready;
}

void
ModelWorld::eject_flit(const Flit &flit, Cycle ready)
{
    const auto idx = static_cast<std::size_t>(flit.pkt - 1);
    CATNAP_ASSERT(idx < slots_.size(), "ejected unknown packet ",
                  flit.pkt);
    CATNAP_ASSERT(slots_[idx].phase == SlotPhase::kInNet,
                  "ejected packet whose slot is not in-network");
    slots_[idx].phase = SlotPhase::kIdle;
    if (sink_)
        sink_->on_event({ready, EventKind::kFlitEject, flit.dst,
                         slots_[idx].subnet, 0, 1, flit.pkt});
}

std::uint8_t
ModelWorld::clamp8(Cycle v, Cycle cap)
{
    // Timers are folded into the state vector as bounded relative
    // values; the clamp makes the abstract state space finite.
    return static_cast<std::uint8_t>(v < cap ? v : cap);
}

std::vector<std::uint8_t>
ModelWorld::state_vector() const
{
    std::vector<std::uint8_t> v;
    v.reserve(512);
    v.push_back(static_cast<std::uint8_t>(budget_));
    v.push_back(clamp8(now_ % static_cast<Cycle>(
                                  congestion_.config().rcs_period),
                       250));
    v.push_back(accounting_error_ ? 1 : 0);
    for (SubnetId s = 0; s < kSubnets; ++s)
        v.push_back(monitor_.mask().healthy(s) ? 1 : 0);
    for (const Slot &sl : slots_)
        v.push_back(static_cast<std::uint8_t>(sl.phase));

    const auto be_cap = static_cast<Cycle>(params_.t_breakeven) + 1;
    for (SubnetId s = 0; s < kSubnets; ++s) {
        for (NodeId n = 0; n < kNodes; ++n) {
            const auto si = static_cast<std::size_t>(s);
            const auto ni = static_cast<std::size_t>(n);
            const Router &r = *routers_[si][ni];
            v.push_back(r.failed() ? 1 : 0);
            v.push_back(static_cast<std::uint8_t>(r.power_state()));
            v.push_back(r.wake_stuck() ? 1 : 0);
            v.push_back(lose_armed_[si][ni] ? 1 : 0);
            v.push_back(r.wake_requested() ? 1 : 0);
            if (r.power_state() == PowerState::kWakeup) {
                const Cycle done = r.wake_done_cycle();
                v.push_back(done == catnap::kNoCycle
                                ? 255
                                : clamp8(done > now_ ? done - now_ : 0,
                                         250));
            } else {
                v.push_back(0);
            }
            v.push_back(clamp8(static_cast<Cycle>(r.expected_packets()),
                               7));
            v.push_back(clamp8(static_cast<Cycle>(r.idle_streak()),
                               static_cast<Cycle>(params_.t_idle_detect)));
            v.push_back(r.power_state() == PowerState::kSleep
                            ? clamp8(now_ - shadow_sleep_start_[si][ni],
                                     be_cap)
                            : 0);
            for (int p = 0; p < catnap::kNumPorts; ++p) {
                const Direction d = catnap::direction_from_index(p);
                v.push_back(clamp8(
                    static_cast<Cycle>(r.vc_occupancy(d, 0)), 7));
                v.push_back(r.vc_active(d, 0) ? 1 : 0);
                const int credits =
                    std::min(r.output_credits(d, 0),
                             params_.vc_depth_flits);
                v.push_back(clamp8(
                    static_cast<Cycle>(credits > 0 ? credits : 0), 7));
                v.push_back(clamp8(
                    static_cast<Cycle>(r.pending_credits_for(d, 0)), 7));
                const std::vector<int> hist =
                    r.arrival_lag_histogram(d, now_, 2);
                for (const int h : hist)
                    v.push_back(clamp8(static_cast<Cycle>(h), 7));
            }
            const catnap::GatingPolicy::WakeRetryState &st =
                policy_->retry_state(s, n);
            const bool pending = st.pending_since != catnap::kNoCycle;
            v.push_back(pending ? 1 : 0);
            v.push_back(pending ? clamp8(now_ - st.pending_since, 63)
                                : 0);
            v.push_back(pending
                            ? clamp8(st.next_check > now_
                                         ? st.next_check - now_
                                         : 0,
                                     63)
                            : 0);
            v.push_back(clamp8(static_cast<Cycle>(st.retries), 7));
        }
    }

    const auto hold_cap =
        static_cast<Cycle>(congestion_.config().lcs_hold);
    for (SubnetId s = 0; s < kSubnets; ++s) {
        for (NodeId n = 0; n < kNodes; ++n) {
            v.push_back(congestion_.lcs(n, s) ? 1 : 0);
            const Cycle until = congestion_.lcs_hold_until(n, s);
            v.push_back(clamp8(until > now_ ? until - now_ : 0,
                               hold_cap));
        }
    }
    for (SubnetId s = 0; s < kSubnets; ++s) {
        for (int reg = 0; reg < mesh_.num_regions(); ++reg)
            v.push_back(congestion_.rcs_region(reg, s) ? 1 : 0);
    }
    return v;
}

bool
ModelWorld::quiescent() const
{
    for (SubnetId s = 0; s < kSubnets; ++s) {
        if (!monitor_.mask().healthy(s))
            continue; // fail() purged everything; slots were reset
        for (NodeId n = 0; n < kNodes; ++n) {
            const Router &r = router(s, n);
            if (r.total_occupancy() > 0 || r.pending_arrivals() > 0 ||
                r.expected_packets() > 0 ||
                r.power_state() == PowerState::kWakeup ||
                r.wake_requested()) {
                return false;
            }
        }
        for (const Slot &sl : slots_) {
            if (sl.subnet == s && sl.phase != SlotPhase::kIdle)
                return false;
        }
    }
    return true;
}

int
ModelWorld::flits_in_network() const
{
    int total = 0;
    for (const auto &sub : routers_) {
        for (const auto &r : sub) {
            total += r->total_occupancy();
            total += static_cast<int>(r->pending_arrivals());
        }
    }
    return total;
}

} // namespace catnap_model
