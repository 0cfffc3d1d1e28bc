#include "fault/fault.h"

#include <algorithm>
#include <set>
#include <utility>

#include "ckpt/fields.h"
#include "common/log.h"
#include "noc/flit.h"
#include "noc/multinoc.h"

namespace catnap {

const char *
fault_kind_name(FaultKind kind)
{
    switch (kind) {
      case FaultKind::kRouterFailure: return "router_failure";
      case FaultKind::kLinkFailure:   return "link_failure";
      case FaultKind::kLostWake:      return "lost_wake";
      case FaultKind::kDelayedWake:   return "delayed_wake";
      case FaultKind::kWakeStuck:     return "wake_stuck";
      case FaultKind::kRcsGlitch:     return "rcs_glitch";
    }
    return "?";
}

FaultController::FaultController(MultiNoc *noc, const FaultPlan &plan)
    : noc_(noc), plan_(plan), monitor_(noc->num_subnets()), rng_(plan.seed)
{
    for (const FaultEvent &ev : plan_.events) {
        CATNAP_ASSERT(ev.subnet >= 0 && ev.subnet < noc_->num_subnets(),
                      "fault event targets subnet ", ev.subnet,
                      " of a ", noc_->num_subnets(), "-subnet network");
        CATNAP_ASSERT(ev.node >= 0 && ev.node < noc_->num_nodes(),
                      "fault event targets node ", ev.node, " of a ",
                      noc_->num_nodes(), "-node network");
        switch (ev.kind) {
          case FaultKind::kRouterFailure:
          case FaultKind::kLinkFailure:
          case FaultKind::kWakeStuck:
            timeline_.push_back(ev);
            break;
          case FaultKind::kLostWake:
          case FaultKind::kDelayedWake:
            windows_.push_back({ev.at, ev.at + ev.duration, ev.subnet,
                                ev.node, ev.kind == FaultKind::kDelayedWake,
                                ev.delay});
            break;
          case FaultKind::kRcsGlitch:
            glitches_.push_back(ev);
            break;
        }
    }
    const auto by_cycle = [](const FaultEvent &a, const FaultEvent &b) {
        return a.at < b.at;
    };
    std::stable_sort(timeline_.begin(), timeline_.end(), by_cycle);
    std::stable_sort(glitches_.begin(), glitches_.end(), by_cycle);
}

void
FaultController::set_sink(EventSink *sink)
{
    sink_ = sink;
    monitor_.set_sink(sink);
}

void
FaultController::emit_fault(FaultKind kind, NodeId node, SubnetId subnet,
                            std::int32_t detail, Cycle now)
{
    ++faults_fired_;
    if (sink_) {
        sink_->on_event({now, EventKind::kFaultInjected, node, subnet,
                         static_cast<std::int32_t>(kind), detail, 0});
    }
}

void
FaultController::pre_cycle(Cycle now)
{
    while (next_event_ < timeline_.size() && timeline_[next_event_].at <= now) {
        fire(timeline_[next_event_], now);
        ++next_event_;
    }

    // Deliver delayed wake-ups that have matured.
    std::size_t kept = 0;
    for (const DelayedWake &d : delayed_) {
        if (d.fire_at > now) {
            delayed_[kept++] = d;
            continue;
        }
        Router &r = noc_->router(d.subnet, d.node);
        if (!r.failed())
            r.begin_wakeup(now, WakeReason::kLookahead);
    }
    delayed_.resize(kept);
}

void
FaultController::fire(const FaultEvent &ev, Cycle now)
{
    switch (ev.kind) {
      case FaultKind::kRouterFailure:
        emit_fault(ev.kind, ev.node, ev.subnet, 0, now);
        fail_subnet(ev.subnet, ev.node, now);
        break;
      case FaultKind::kLinkFailure:
        emit_fault(ev.kind, ev.node, ev.subnet,
                   static_cast<std::int32_t>(ev.port), now);
        fail_subnet(ev.subnet, ev.node, now);
        break;
      case FaultKind::kWakeStuck:
        emit_fault(ev.kind, ev.node, ev.subnet, 0, now);
        noc_->router(ev.subnet, ev.node).set_wake_stuck(true);
        break;
      case FaultKind::kLostWake:
      case FaultKind::kDelayedWake:
      case FaultKind::kRcsGlitch:
        break; // window / glitch lists, handled elsewhere
    }
}

void
FaultController::fail_subnet(SubnetId s, NodeId root, Cycle now)
{
    if (!monitor_.mask().healthy(s))
        return;

    // Atomically purge the whole subnet: every router's buffered and
    // in-flight flits and every NI's slot/event state tied to it. X-Y
    // routing cannot steer around a dead router, so partial service is
    // not an option; the healthy subnets are the redundancy.
    std::vector<Flit> dropped;
    std::vector<PacketDesc> lost_slots;
    const int nodes = noc_->num_nodes();
    for (NodeId n = 0; n < nodes; ++n)
        noc_->router(s, n).fail(&dropped, now);
    for (NodeId n = 0; n < nodes; ++n)
        noc_->ni(n).purge_subnet(s, &dropped, &lost_slots);
    noc_->metrics().note_dropped_flits(dropped.size());

    monitor_.mark_failed(s, root, now);

    // Notify each lost packet's source NI exactly once (deterministic
    // order) so it can retransmit on a healthy subnet.
    std::set<std::pair<NodeId, PacketId>> lost;
    for (const Flit &f : dropped)
        lost.insert({f.src, f.pkt});
    for (const PacketDesc &p : lost_slots)
        lost.insert({p.src, p.id});
    for (const auto &[src, id] : lost)
        noc_->ni(src).note_packet_lost(id, now);

    if (monitor_.mask().num_healthy() == 0) {
        CATNAP_WARN("cycle ", now, ": last subnet (", s,
                    ") failed; the network is dead and undelivered "
                    "packets will be dropped");
    }
}

void
FaultController::post_congestion(Cycle now)
{
    const CongestionConfig &ccfg = noc_->congestion().config();
    if (!ccfg.use_rcs)
        return;

    while (next_glitch_ < glitches_.size() &&
           glitches_[next_glitch_].at <= now) {
        const FaultEvent &ev = glitches_[next_glitch_];
        ++next_glitch_;
        if (!monitor_.mask().healthy(ev.subnet))
            continue;
        const int region = noc_->mesh().region_of(ev.node);
        noc_->congestion().glitch_rcs_for_fault(region, ev.subnet, now);
        emit_fault(FaultKind::kRcsGlitch, ev.node, ev.subnet, region, now);
    }

    if (plan_.rcs_glitch_prob <= 0.0)
        return;
    const auto period = static_cast<Cycle>(ccfg.rcs_period);
    if (period == 0 || now % period != 0)
        return;
    const int regions = noc_->mesh().num_regions();
    for (SubnetId s = 0; s < noc_->num_subnets(); ++s) {
        for (int region = 0; region < regions; ++region) {
            // Draw for every (subnet, region) so the private RNG stream
            // stays aligned regardless of health transitions.
            const bool hit = rng_.bernoulli(plan_.rcs_glitch_prob);
            if (!hit || !monitor_.mask().healthy(s))
                continue;
            noc_->congestion().glitch_rcs_for_fault(region, s, now);
            emit_fault(FaultKind::kRcsGlitch, kInvalidNode, s, region, now);
        }
    }
}

bool
FaultController::intercept_wake(Router *router, Cycle now)
{
    if (router->failed())
        return true; // dead routers never wake
    for (const WakeWindow &w : windows_) {
        if (w.subnet != router->subnet() || w.node != router->node())
            continue;
        if (now < w.from || now >= w.until)
            continue;
        if (w.delay) {
            delayed_.push_back({now + w.delay_by, w.subnet, w.node});
            emit_fault(FaultKind::kDelayedWake, w.node, w.subnet,
                       static_cast<std::int32_t>(w.delay_by), now);
        } else {
            emit_fault(FaultKind::kLostWake, w.node, w.subnet, 0, now);
        }
        return true;
    }
    if (plan_.wake_loss_prob > 0.0 &&
        rng_.bernoulli(plan_.wake_loss_prob)) {
        emit_fault(FaultKind::kLostWake, router->node(), router->subnet(), 0,
                   now);
        return true;
    }
    return false;
}

void
FaultController::escalate_wake_failure(Router *router, Cycle now)
{
    emit_fault(FaultKind::kRouterFailure, router->node(), router->subnet(),
               plan_.tuning.max_wake_retries, now);
    CATNAP_WARN("cycle ", now, ": router (subnet ", router->subnet(),
                ", node ", router->node(), ") failed to wake after ",
                plan_.tuning.max_wake_retries,
                " retries; escalating to hard failure");
    fail_subnet(router->subnet(), router->node(), now);
}

void
FaultController::note_wake_retry(const Router &router, int retry,
                                 Cycle backoff, Cycle now)
{
    if (sink_) {
        sink_->on_event({now, EventKind::kWakeRetry, router.node(),
                         router.subnet(), retry,
                         static_cast<std::int32_t>(backoff), 0});
    }
}

void
FaultController::note_delivered(const Flit &tail)
{
    noc_->ni(tail.src).ack_packet(tail.pkt);
}

CATNAP_PHASE_READ void
FaultController::Serialize(ckpt::Writer &w) const
{
    monitor_.Serialize(w);
    rng_.Serialize(w);
    w.put_u64(next_event_);
    w.put_u64(next_glitch_);

    ckpt::put(w, windows_);
    ckpt::put(w, delayed_);
    w.put_u64(faults_fired_);
}

CATNAP_PHASE_WRITE void
FaultController::Deserialize(ckpt::Reader &r)
{
    monitor_.Deserialize(r);
    rng_.Deserialize(r);
    next_event_ = static_cast<std::size_t>(r.take_u64());
    next_glitch_ = static_cast<std::size_t>(r.take_u64());
    if (next_event_ > timeline_.size() || next_glitch_ > glitches_.size())
        throw ckpt::CkptError(
            "checkpoint: fault timeline cursor beyond plan length — the "
            "checkpoint was taken against a different fault plan");

    windows_ = ckpt::take<std::vector<WakeWindow>>(r);
    delayed_ = ckpt::take<std::vector<DelayedWake>>(r);
    faults_fired_ = r.take_u64();
}

} // namespace catnap
