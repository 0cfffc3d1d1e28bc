#include "catnap/gating.h"

#include <algorithm>

#include "catnap/congestion.h"
#include "ckpt/fields.h"
#include "common/log.h"
#include "fault/wake_fault.h"
#include "noc/router.h"
#include "topology/topology.h"

namespace catnap {

const char *
gating_kind_name(GatingKind k)
{
    switch (k) {
      case GatingKind::kAlwaysOn: return "AlwaysOn";
      case GatingKind::kIdle:     return "IdleGate";
      case GatingKind::kCatnap:   return "CatnapGate";
      case GatingKind::kFinePort: return "FinePortGate";
    }
    return "?";
}

void
GatingPolicy::attach(SubnetId s, std::vector<Router *> routers)
{
    const auto si = static_cast<std::size_t>(s);
    if (si >= routers_.size()) {
        routers_.resize(si + 1);
        live_.resize(si + 1);
    }
    routers_[si] = std::move(routers);
    // Inner vectors keep their storage when live_ grows, so the
    // pointers handed out stay valid.
    live_[si].assign(routers_[si].size(), 1);
    for (std::size_t n = 0; n < routers_[si].size(); ++n)
        routers_[si][n]->set_live_flag(&live_[si][n]);
}

void
GatingPolicy::retire_if_dormant(std::size_t s, std::size_t n, bool gateable)
{
    if (!fault_ && routers_[s][n]->dormant(gateable))
        live_[s][n] = 0;
}

const GatingPolicy::WakeRetryState &
GatingPolicy::retry_state(SubnetId s, NodeId n) const
{
    static const WakeRetryState kDefault{};
    const auto si = static_cast<std::size_t>(s);
    const auto ni = static_cast<std::size_t>(n);
    if (si >= retry_.size() || ni >= retry_[si].size())
        return kDefault;
    return retry_[si][ni];
}

void
GatingPolicy::service_wake_requests(Cycle now, std::optional<Direction> port)
{
    // A wake request sets its router's live byte.
    for (std::size_t s = 0; s < routers_.size(); ++s) {
        for (std::size_t n = 0; n < routers_[s].size(); ++n) {
            Router *r = routers_[s][n];
            if (!live_[s][n] || !r->wake_requested(port))
                continue;
            r->clear_wake_request(port);
            if (fault_ && fault_->intercept_wake(r, now))
                continue; // the fault model swallowed or deferred it
            r->begin_wakeup(now, WakeReason::kLookahead, port);
        }
    }
}

void
GatingPolicy::service_wake_retries(Cycle now)
{
    if (!fault_)
        return;
    const FaultTuning &t = fault_->tuning();
    if (retry_.size() != routers_.size())
        retry_.resize(routers_.size());
    for (std::size_t s = 0; s < routers_.size(); ++s) {
        auto &subnet = routers_[s];
        auto &states = retry_[s];
        if (states.size() != subnet.size())
            states.resize(subnet.size());
        for (std::size_t n = 0; n < subnet.size(); ++n) {
            Router *r = subnet[n];
            WakeRetryState &st = states[n];
            if (r->failed()) {
                st = WakeRetryState{};
                continue;
            }
            // A wake is "pending" while the router is mid-wake-up, or
            // asleep with announced packets (its look-ahead wake signal
            // was lost and flits are heading its way).
            const bool pending =
                r->power_state() == PowerState::kWakeup ||
                (r->power_state() == PowerState::kSleep &&
                 r->expected_packets() > 0);
            if (!pending) {
                st = WakeRetryState{};
                continue;
            }
            if (st.pending_since == kNoCycle) {
                st.pending_since = now;
                st.next_check = now + t.t_wake_timeout;
                st.retries = 0;
                continue;
            }
            if (now < st.next_check)
                continue;
            if (st.retries >= t.max_wake_retries) {
                fault_->escalate_wake_failure(r, now);
                st = WakeRetryState{};
                continue;
            }
            ++st.retries;
            if (r->power_state() == PowerState::kSleep)
                r->begin_wakeup(now, WakeReason::kRetry);
            else
                r->retry_wakeup(now);
            const Cycle backoff =
                t.t_wake_timeout
                << std::min(st.retries, t.backoff_cap_exp);
            st.next_check = now + backoff;
            fault_->note_wake_retry(*r, st.retries, backoff, now);
        }
    }
}

void
AlwaysOnPolicy::step(Cycle now)
{
    // Routers never sleep; just clear (and implicitly ignore) requests.
    for (std::size_t s = 0; s < routers_.size(); ++s) {
        for (std::size_t n = 0; n < routers_[s].size(); ++n) {
            if (!live_[s][n])
                continue;
            Router *r = routers_[s][n];
            r->clear_wake_request();
            retire_if_dormant(s, n, false);
        }
    }
    (void)now;
}

void
IdleGatingPolicy::step(Cycle now)
{
    service_wake_requests(now);
    service_wake_retries(now);
    for (std::size_t s = 0; s < routers_.size(); ++s) {
        for (std::size_t n = 0; n < routers_[s].size(); ++n) {
            if (!live_[s][n])
                continue;
            Router *r = routers_[s][n];
            if (!r->failed() && r->can_sleep())
                r->enter_sleep(now);
            retire_if_dormant(s, n, true);
        }
    }
}

void
FinePortGatingPolicy::step(Cycle now)
{
    // Idle gating applied to each input port's domain.
    for (int p = 0; p < kNumPorts; ++p)
        service_wake_requests(now, direction_from_index(p));
    for (std::size_t s = 0; s < routers_.size(); ++s) {
        for (std::size_t n = 0; n < routers_[s].size(); ++n) {
            if (!live_[s][n])
                continue;
            Router *r = routers_[s][n];
            for (int p = 0; p < kNumPorts; ++p) {
                const Direction d = direction_from_index(p);
                if (r->can_sleep(d))
                    r->enter_sleep(now, d);
            }
            retire_if_dormant(s, n, true);
        }
    }
}

CatnapGatingPolicy::CatnapGatingPolicy(const ConcentratedMesh &mesh,
                                       const CongestionState *congestion)
    : mesh_(mesh), congestion_(congestion)
{
    CATNAP_ASSERT(congestion_ != nullptr,
                  "Catnap gating requires the congestion detector");
}

void
CatnapGatingPolicy::step(Cycle now)
{
    service_wake_requests(now);
    service_wake_retries(now);
    // Without faults, subnet 0 is the never-sleep subnet (Section 3.3).
    // Under the fault model the lowest *healthy* subnet takes that role
    // (DESIGN.md §10), and the priority chain skips failed subnets.
    const SubnetId promoted = fault_ ? fault_->never_sleep_subnet() : 0;
    for (std::size_t s = 0; s < routers_.size(); ++s) {
        const auto sid = static_cast<SubnetId>(s);
        const SubnetId lower =
            fault_ ? fault_->health().next_lower_healthy(sid) : sid - 1;
        // A retired router reacts only to its lower subnet congesting.
        const bool visit_all =
            lower != kNoSubnet && congestion_->any_congested(lower);
        const bool gates = gateable(sid);
        for (std::size_t n = 0; n < routers_[s].size(); ++n) {
            if (!visit_all && !live_[s][n])
                continue;
            Router *r = routers_[s][n];
            if (fault_ && r->failed()) {
                // A dead router takes no part in gating.
            } else if (sid == promoted) {
                // The never-sleep subnet is always kept active; a freshly
                // promoted subnet may still be asleep and must be woken.
                if (fault_ && r->power_state() == PowerState::kSleep)
                    r->begin_wakeup(now, WakeReason::kRcs);
            } else if (promoted != kNoSubnet && lower != kNoSubnet) {
                // (promoted == kNoSubnet: every subnet failed, nothing
                // is left to gate.)
                const bool lower_congested =
                    congestion_->congested(r->node(), lower);
                if (r->power_state() == PowerState::kSleep) {
                    // Wake as soon as the lower-order subnet congests:
                    // new packets are about to be steered our way.
                    if (lower_congested)
                        r->begin_wakeup(now, WakeReason::kRcs);
                } else if (r->can_sleep() && !lower_congested) {
                    r->enter_sleep(now);
                }
            }
            retire_if_dormant(s, n, gates);
        }
    }
}

std::unique_ptr<GatingPolicy>
make_gating_policy(GatingKind kind, const ConcentratedMesh &mesh,
                   const CongestionState *congestion)
{
    switch (kind) {
      case GatingKind::kAlwaysOn:
        return std::make_unique<AlwaysOnPolicy>();
      case GatingKind::kIdle:
        return std::make_unique<IdleGatingPolicy>();
      case GatingKind::kCatnap:
        return std::make_unique<CatnapGatingPolicy>(mesh, congestion);
      case GatingKind::kFinePort:
        return std::make_unique<FinePortGatingPolicy>();
    }
    CATNAP_PANIC("unknown gating kind");
}

CATNAP_PHASE_READ void
GatingPolicy::Serialize(ckpt::Writer &w) const
{
    ckpt::put(w, retry_);
}

CATNAP_PHASE_WRITE void
GatingPolicy::Deserialize(ckpt::Reader &r)
{
    retry_ = ckpt::take<std::vector<std::vector<WakeRetryState>>>(r);
    for (std::size_t s = 0; s < routers_.size(); ++s) {
        const bool gates = gateable(static_cast<SubnetId>(s));
        for (std::size_t n = 0; n < routers_[s].size(); ++n) {
            live_[s][n] = 1;
            retire_if_dormant(s, n, gates);
        }
    }
}

} // namespace catnap
