#include "noc/router.h"

#include <algorithm>
#include <bit>
#include <limits>

#include "ckpt/codec.h"
#include "common/log.h"
#include "noc/routing.h"

namespace catnap {

namespace {

/** Credits assigned to the local output port, which ejects into the NI's
 * (conceptually unbounded) reassembly buffers. */
constexpr int kLocalPortCredits = std::numeric_limits<int>::max() / 2;

/** @p i (in [0, 2 * @p n)) wrapped into [0, @p n). */
int
wrap(int i, int n)
{
    return i < n ? i : i - n;
}

/**
 * Steps from position @p pos to the first set bit of @p mask at or after
 * it, wrapping within @p n positions (@p mask nonzero and below bit
 * @p n, @p pos in [0, @p n)). std::rotr would wrap at bit 32 instead.
 */
int
steps_to_next(std::uint32_t mask, int pos, int n)
{
    const std::uint32_t ahead = mask >> pos;
    return ahead != 0 ? std::countr_zero(ahead)
                      : n - pos + std::countr_zero(mask);
}

} // namespace

Router::Router(NodeId node, SubnetId subnet, const SubnetParams &params,
               const ConcentratedMesh &mesh)
    : node_(node), subnet_(subnet), params_(params), mesh_(mesh)
{
    CATNAP_ASSERT(params_.num_vcs > 0 && params_.vc_depth_flits > 0,
                  "router needs VCs and buffer depth");
    CATNAP_ASSERT(params_.num_vcs % params_.num_classes == 0,
                  "VCs must partition evenly across message classes");
    CATNAP_ASSERT(kNumPorts * params_.num_vcs <= 32,
                  "the allocators' request masks hold at most 32 input VCs");

    const auto slots =
        static_cast<std::size_t>(kNumPorts * params_.num_vcs);
    fifos_.reserve(slots);
    for (std::size_t i = 0; i < slots; ++i)
        fifos_.emplace_back(static_cast<std::size_t>(params_.vc_depth_flits));
    vc_state_.resize(slots);
    out_owner_.assign(slots, 0);
    out_credits_.assign(slots, 0);
    // Local output port ejects into the NI: effectively infinite credit.
    for (int vc = 0; vc < params_.num_vcs; ++vc)
        out_credits_[fifo_index(port_index(Direction::kLocal), vc)] =
            kLocalPortCredits;

    va_rr_.assign(kNumPorts, 0);
    sa_input_rr_.assign(kNumPorts, 0);
    sa_output_rr_.assign(kNumPorts, 0);
}

void
Router::connect(Direction d, Router *neighbor)
{
    CATNAP_ASSERT(d != Direction::kLocal, "local port has no router peer");
    neighbors_[static_cast<std::size_t>(port_index(d))] = neighbor;
    if (neighbor) {
        // Credit-based flow control: we may send as many flits per VC as
        // the downstream buffer can hold.
        for (int vc = 0; vc < params_.num_vcs; ++vc)
            out_credits_[fifo_index(port_index(d), vc)] =
                params_.vc_depth_flits;
    }
}

void
Router::evaluate(Cycle now)
{
    // A gated or waking router performs no allocation; an empty router
    // with no packet mid-stream has nothing to allocate either.
    if (failed_ || power_.state() != PowerState::kActive)
        return;
    if (total_buffered_ == 0)
        return;
    Requests req = requests();
#if defined(CATNAP_CHECKS) && CATNAP_CHECKS
    const SlotScan scan = slot_scan(now);
#endif
    run_vc_allocation(req);
    const SwitchGrants grants = run_switch_allocation(now, req);
#if defined(CATNAP_CHECKS) && CATNAP_CHECKS
    check_slot_scan(scan, grants, now);
#endif
    traverse(now, grants);
}

Router::Requests
Router::requests() const
{
    const int num_vcs = params_.num_vcs;
    Requests req;
    for (int port = 0, slot = 0; port < kNumPorts; ++port) {
        for (int vc = 0; vc < num_vcs; ++vc, ++slot) {
            const auto &fifo = fifos_[static_cast<std::size_t>(slot)];
            if (fifo.empty())
                continue;
            if (vc_state_[static_cast<std::size_t>(slot)].active) {
                req.sa[static_cast<std::size_t>(port)] |= 1u << vc;
                continue;
            }
            const Flit &head = fifo.front();
            const int out = port_index(head.out_dir);
            // No U-turns (X-Y routing never needs them).
            if (head.is_head() && out != port)
                req.va[static_cast<std::size_t>(out)] |= 1u << slot;
        }
    }
    return req;
}

void
Router::run_vc_allocation(Requests &req)
{
    const int num_vcs = params_.num_vcs;
    const int slots = kNumPorts * num_vcs;

    // For each output port, visit the head flits requesting it and hand
    // out free downstream VCs within each packet's message-class
    // partition. The visiting order is part of the model: it is that of
    // a round-robin scan over all slots that re-reads va_rr_[out] at
    // every step i, so after a grant at step i the scan goes on at
    // (slot + 1) + (i + 1). The walk counts the positions it skips as
    // steps to keep that order; another order changes the results.
    for (int out = 0; out < kNumPorts; ++out) {
        int &rr = va_rr_[static_cast<std::size_t>(out)];
        std::uint32_t want = req.va[static_cast<std::size_t>(out)];
        int pos = rr; // the slot step i visits
        int granted = 0;
        for (int i = 0; want != 0 && granted < num_vcs; ++i) {
            const int skip = steps_to_next(want, pos, slots);
            i += skip;
            if (i >= slots)
                break;
            const int slot = wrap(pos + skip, slots);
            // Within one call a denied slot stays denied and a granted
            // one is active, so a visited slot leaves the walk.
            want &= ~(1u << slot);
            pos = wrap(slot + 1, slots);

            const Flit &head = fifos_[static_cast<std::size_t>(slot)].front();
            // Find a free VC in this message class's partition. On a
            // torus each partition is split into a dateline pair: the
            // lower half serves packets that have not crossed their
            // ring's wrap link (counting a crossing on this very hop),
            // the upper half those that have. This breaks the ring
            // buffer-dependency cycles, making DOR deadlock free.
            const int cls = static_cast<int>(head.mc) % params_.num_classes;
            int base = params_.first_vc_of_class(cls);
            int span = params_.vcs_per_class();
            if (mesh_.is_torus() && head.out_dir != Direction::kLocal) {
                span /= 2;
                const bool crossed =
                    head.wrapped || mesh_.link_wraps(node_, head.out_dir);
                if (crossed)
                    base += span;
            }
            VcId chosen = kInvalidVc;
            for (int v = 0; v < span; ++v) {
                const int vc = base + v;
                if (out_owner_[fifo_index(out, vc)] == 0) {
                    chosen = vc;
                    break;
                }
            }
            if (chosen == kInvalidVc)
                continue;
            out_owner_[fifo_index(out, chosen)] =
                static_cast<std::int64_t>(head.pkt) + 1;
            auto &st = vc_state_[static_cast<std::size_t>(slot)];
            st.active = true;
            st.out_dir = head.out_dir;
            st.out_vc = chosen;
            ++granted;
            ++activity_.arb_ops;
            // Rotate priority past this requestor for fairness; switch
            // allocation may use the new VC in this same cycle.
            rr = pos;
            pos = (slot + 1 + i + 1) % slots;
            req.sa[static_cast<std::size_t>(slot / num_vcs)] |=
                1u << (slot % num_vcs);
        }
    }
}

bool
Router::downstream_accepts(int out, Cycle now) const
{
    if (out == port_index(Direction::kLocal))
        return true;
    const Router *nbr = neighbors_[static_cast<std::size_t>(out)];
    CATNAP_ASSERT(nbr != nullptr, "route out of mesh at node ", node_);
    return nbr->can_accept_at(
        opposite(direction_from_index(out)),
        now + static_cast<Cycle>(params_.st_delay + params_.link_delay));
}

Router::SwitchGrants
Router::run_switch_allocation(Cycle now, const Requests &req)
{
    const int num_vcs = params_.num_vcs;
    SwitchGrants g;
    g.nominee_vc.fill(-1);
    g.winner_in.fill(-1);

    // Input-first separable allocation: each input port nominates its
    // first ready VC from sa_input_rr_, then each output port grants the
    // first nominating input port from sa_output_rr_. Whether an output
    // port's downstream input accepts a flit depends on the port only,
    // so it is asked once (0/1, -1 until asked).
    std::array<int, kNumPorts> accepts;
    accepts.fill(-1);
    std::array<std::uint32_t, kNumPorts> nominating{}; // per output port
    for (int inport = 0; inport < kNumPorts; ++inport) {
        std::uint32_t want = req.sa[static_cast<std::size_t>(inport)];
        const int rr = sa_input_rr_[static_cast<std::size_t>(inport)];
        while (want != 0) {
            const int invc = wrap(rr + steps_to_next(want, rr, num_vcs),
                                  num_vcs);
            want &= ~(1u << invc);
            const auto &st = vc_state_[fifo_index(inport, invc)];
            const int out = port_index(st.out_dir);
            if (out_credits_[fifo_index(out, st.out_vc)] <= 0)
                continue;
            int &open = accepts[static_cast<std::size_t>(out)];
            if (open < 0)
                open = downstream_accepts(out, now) ? 1 : 0;
            if (open == 0)
                continue;
            g.nominee_vc[static_cast<std::size_t>(inport)] = invc;
            nominating[static_cast<std::size_t>(out)] |= 1u << inport;
            break;
        }
    }

    // Output arbitration among nominating inputs.
    for (int out = 0; out < kNumPorts; ++out) {
        const std::uint32_t from = nominating[static_cast<std::size_t>(out)];
        if (from == 0)
            continue;
        int &rr = sa_output_rr_[static_cast<std::size_t>(out)];
        const int inport =
            wrap(rr + steps_to_next(from, rr, kNumPorts), kNumPorts);
        g.winner_in[static_cast<std::size_t>(out)] = inport;
        rr = wrap(inport + 1, kNumPorts);
    }
    return g;
}

void
Router::traverse(Cycle now, const SwitchGrants &g)
{
    const int num_vcs = params_.num_vcs;
    for (int out = 0; out < kNumPorts; ++out) {
        const int inport = g.winner_in[static_cast<std::size_t>(out)];
        if (inport < 0)
            continue;
        const int invc = g.nominee_vc[static_cast<std::size_t>(inport)];
        const auto idx = fifo_index(inport, invc);
        auto &st = vc_state_[idx];
        auto &fifo = fifos_[idx];

        Flit f = fifo.pop();
        --total_buffered_;
        sa_input_rr_[static_cast<std::size_t>(inport)] =
            (invc + 1) % num_vcs;

        ++activity_.buffer_reads;
        ++activity_.xbar_traversals;
        ++activity_.arb_ops;
        ++switched_flits_;
        head_block_cycles_ += (now > st.head_since)
            ? (now - st.head_since) : 0;

        // Consume a credit toward the downstream buffer.
        --out_credits_[fifo_index(out, st.out_vc)];

        // Return a credit for the buffer slot this flit vacated.
        if (inport == port_index(Direction::kLocal)) {
            CATNAP_ASSERT(local_client_, "no NI attached at node ", node_);
            local_client_->return_local_credit(
                invc, now + static_cast<Cycle>(params_.credit_delay));
        } else {
            Router *up = neighbors_[static_cast<std::size_t>(inport)];
            CATNAP_ASSERT(up != nullptr, "credit to missing neighbour");
            up->deliver_credit(
                opposite(direction_from_index(inport)), invc,
                now + static_cast<Cycle>(params_.credit_delay));
        }

        if (st.out_dir == Direction::kLocal) {
            CATNAP_ASSERT(local_client_, "no NI attached at node ", node_);
            local_client_->eject_flit(
                f, now + static_cast<Cycle>(params_.st_delay));
        } else {
            Router *nbr = neighbors_[static_cast<std::size_t>(out)];
            ++activity_.link_flits;
            // Look-ahead routing: stamp the output port the flit will
            // take at the downstream router before it leaves.
            Flit next = f;
            next.out_dir = xy_route(mesh_, nbr->node(), f.dst);
            next.vc = st.out_vc;
            // Dateline tracking: carry the crossed bit along the current
            // ring (including a crossing on this hop); a turn into the
            // next dimension starts that ring's journey uncrossed.
            next.wrapped =
                same_dimension(st.out_dir, next.out_dir) &&
                (f.wrapped || mesh_.link_wraps(node_, st.out_dir));
            nbr->deliver_flit(
                next, opposite(st.out_dir),
                now + static_cast<Cycle>(params_.st_delay
                                         + params_.link_delay));
        }

        if (f.is_tail()) {
            out_owner_[fifo_index(out, st.out_vc)] = 0;
            st.active = false;
            st.out_vc = kInvalidVc;
        }
        st.head_since = now + 1;
    }

    // Heads that waited this cycle without switching accumulate blocking
    // delay implicitly via head_since; nothing further to do here.
}

void
Router::deliver_flit(const Flit &flit, Direction inport, Cycle ready)
{
    mark_live();
    arrivals_.push_back(Arrival{ready, inport, flit});
}

void
Router::deliver_credit(Direction port, VcId vc, Cycle ready)
{
    mark_live();
    credit_events_.push_back(CreditEvent{ready, port, vc});
}

void
Router::commit(Cycle now)
{
    if (failed_)
        return; // a dead router has no queued effects and no FSM to run
    // Each commit skipped while dormant found the buffers empty.
    CATNAP_ASSERT(now >= next_commit_, "router committed twice in cycle ",
                  now);
    power_.add_idle(now - next_commit_);
    next_commit_ = now + 1;
    // Advance the power FSMs before accepting arrivals so a wake-up
    // that completes this cycle can receive the flit timed to land now.
    if (power_.complete_wake(now) && sink_)
        sink_->on_event(
            {now, EventKind::kRouterActive, node_, subnet_, 0, 0, 0});
    if (params_.port_gating)
        for (auto &pd : ports_)
            pd.complete_wake(now);

    apply_credits(now);
    apply_arrivals(now);

    const bool empty = buffers_empty();
    power_.note_idle(empty);
    if (sink_ && empty && power_.idle_streak() == params_.t_idle_detect &&
        power_.state() == PowerState::kActive) {
        sink_->on_event({now, EventKind::kRouterIdleDetect, node_, subnet_,
                         power_.idle_streak(), 0, 0});
    }
    if (params_.port_gating)
        for (int p = 0; p < kNumPorts; ++p)
            ports_[static_cast<std::size_t>(p)].note_idle(
                port_occupancy(direction_from_index(p)) == 0);
}

void
Router::apply_arrivals(Cycle now)
{
    std::size_t kept = 0;
    for (std::size_t i = 0; i < arrivals_.size(); ++i) {
        Arrival &a = arrivals_[i];
        if (a.ready > now) {
            arrivals_[kept++] = a;
            continue;
        }
        CATNAP_ASSERT(power_state(a.inport) == PowerState::kActive,
                      "flit arrived at a non-active router ", node_,
                      " subnet ", subnet_, " port ",
                      direction_name(a.inport), " state ",
                      power_state_name(power_state(a.inport)));
        CATNAP_ASSERT(a.flit.vc >= 0 && a.flit.vc < params_.num_vcs,
                      "flit with unallocated VC");
        const auto idx = fifo_index(port_index(a.inport), a.flit.vc);
        auto &fifo = fifos_[idx];
        CATNAP_ASSERT(!fifo.full(), "buffer overflow despite credits at ",
                      node_, " port ", direction_name(a.inport));
        if (fifo.empty())
            vc_state_[idx].head_since = now + 1;
        fifo.push(a.flit);
        ++total_buffered_;
        ++activity_.buffer_writes;

        if (a.flit.is_head()) {
            // The announced packet has arrived.
            CATNAP_ASSERT(domain(a.inport).expected() > 0,
                          "unannounced head flit at node ", node_);
            domain(a.inport).packet_arrived();
            // Announce it one hop further and send the look-ahead wake
            // signal to the next router (Section 3.3).
            if (a.flit.out_dir != Direction::kLocal) {
                Router *nxt = neighbors_[static_cast<std::size_t>(
                    port_index(a.flit.out_dir))];
                CATNAP_ASSERT(nxt != nullptr, "head routed off mesh");
                nxt->note_expected_packet(opposite(a.flit.out_dir));
                nxt->request_wakeup(opposite(a.flit.out_dir));
            }
        }
    }
    arrivals_.resize(kept);
}

void
Router::apply_credits(Cycle now)
{
    std::size_t kept = 0;
    for (std::size_t i = 0; i < credit_events_.size(); ++i) {
        CreditEvent &c = credit_events_[i];
        if (c.ready > now) {
            credit_events_[kept++] = c;
            continue;
        }
        ++out_credits_[fifo_index(port_index(c.port), c.vc)];
        CATNAP_ASSERT(
            out_credits_[fifo_index(port_index(c.port), c.vc)] <=
                params_.vc_depth_flits ||
                c.port == Direction::kLocal,
            "credit overflow at node ", node_);
    }
    credit_events_.resize(kept);
}

bool
Router::dormant(bool gateable) const
{
    if (failed_ || params_.port_gating || total_buffered_ != 0 ||
        !arrivals_.empty() || !credit_events_.empty() ||
        power_.wake_requested() || power_.expected() != 0 ||
        power_.idle_streak() < params_.t_idle_detect) {
        return false;
    }
    return power_.state() == PowerState::kSleep ||
           (!gateable && power_.state() == PowerState::kActive);
}

bool
Router::can_sleep(std::optional<Direction> port) const
{
    if (failed_ || power_state(port) != PowerState::kActive)
        return false;
    // Seeded mutation (tools/model/ self-test): skip every occupancy
    // and idle-detect condition, i.e. the bug class property P4 exists
    // to catch. See set_model_unsafe_sleep_for_test().
    if (unsafe_sleep_for_test_)
        return true;
    if (!domain(port).can_sleep(params_.t_idle_detect))
        return false;
    // No flit in flight toward, and no packet mid-stream at, any input
    // port this domain gates.
    const PowerDomain *self = &domain(port);
    for (const auto &a : arrivals_)
        if (&domain(a.inport) == self)
            return false;
    for (int p = 0; p < kNumPorts; ++p) {
        if (&domain(direction_from_index(p)) != self)
            continue;
        for (int vc = 0; vc < params_.num_vcs; ++vc)
            if (vc_state_[fifo_index(p, vc)].active)
                return false;
    }
    return true;
}

void
Router::enter_sleep(Cycle now, std::optional<Direction> port)
{
    mark_live();
    domain(port).sleep(now);
    if (!router_level(port)) {
        ++activity_.port_sleep_transitions;
        return;
    }
    CATNAP_ASSERT(buffers_empty() || unsafe_sleep_for_test_,
                  "sleep with buffered flits");
    ++activity_.sleep_transitions;
    if (sink_)
        sink_->on_event(
            {now, EventKind::kRouterSleep, node_, subnet_, 0, 0, 0});
}

void
Router::begin_wakeup(Cycle now, WakeReason reason,
                     std::optional<Direction> port)
{
    mark_live();
    if (failed_ || power_state(port) != PowerState::kSleep)
        return;
    // A wake-stuck fault arms a wake that never matures; only a retry
    // escalation or hard failure ends it.
    const Cycle done =
        wake_stuck_ ? kNoCycle : now + static_cast<Cycle>(params_.t_wakeup);
    const Cycle slept = now - domain(port).sleep_start();
    if (router_level(port))
        activity_.sleep_cycles += slept;
    else
        activity_.port_sleep_cycles += slept;
    credit_sleep(port, domain(port).wake(now, done, params_.t_breakeven));
    if (sink_ && router_level(port))
        sink_->on_event({now, EventKind::kRouterWakeBegin, node_, subnet_,
                         static_cast<std::int32_t>(reason),
                         params_.t_wakeup, 0});
}

void
Router::credit_sleep(std::optional<Direction> port, SleepCredit c)
{
    if (router_level(port)) {
        activity_.compensated_sleep_cycles += c.csc;
        activity_.net_sleep_savings_cycles += c.net;
    } else {
        activity_.port_compensated_sleep_cycles += c.csc;
        activity_.port_net_sleep_savings_cycles += c.net;
    }
}

void
Router::retry_wakeup(Cycle now)
{
    mark_live();
    if (failed_ || power_.state() != PowerState::kWakeup)
        return;
    // A stuck wake is re-asserted and hangs again; a healthy one
    // restarts its t_wakeup countdown unless already due sooner.
    power_.rearm_wake(wake_stuck_ ? kNoCycle
                                  : now + static_cast<Cycle>(params_.t_wakeup));
}

void
Router::fail(std::vector<Flit> *dropped, Cycle now)
{
    mark_live();
    if (failed_)
        return;
    for (auto &fifo : fifos_) {
        while (!fifo.empty())
            dropped->push_back(fifo.pop());
    }
    total_buffered_ = 0;
    for (auto &st : vc_state_)
        st = InputVcState{};
    for (const auto &a : arrivals_)
        dropped->push_back(a.flit);
    arrivals_.clear();
    credit_events_.clear();
    std::fill(out_owner_.begin(), out_owner_.end(), 0);
    for (int p = 0; p < kNumPorts; ++p) {
        for (int vc = 0; vc < params_.num_vcs; ++vc) {
            const auto idx = fifo_index(p, vc);
            if (p == port_index(Direction::kLocal))
                out_credits_[idx] = kLocalPortCredits;
            else
                out_credits_[idx] = neighbors_[static_cast<std::size_t>(p)]
                                        ? params_.vc_depth_flits
                                        : 0;
        }
    }
    // Settle an open sleep period: from now on the router's death is
    // counted as sleep instead.
    if (power_.state() == PowerState::kSleep)
        activity_.sleep_cycles += now - power_.sleep_start();
    failed_at_ = now;
    // Leave kActive behind so no invariant sees an impossible FSM edge;
    // failed() short-circuits every service path from here on.
    power_.abandon();
    failed_ = true;
}

void
Router::flush_sleep_accounting(Cycle now)
{
    credit_sleep(std::nullopt, power_.flush(now, params_.t_breakeven));
    if (params_.port_gating)
        for (int p = 0; p < kNumPorts; ++p) {
            const Direction d = direction_from_index(p);
            credit_sleep(d, domain(d).flush(now, params_.t_breakeven));
        }
}

Cycle
Router::open_sleep_cycles(Cycle now) const
{
    // A dead router draws nothing worth modelling; count it with the
    // gated cycles so power totals reflect the lost capacity.
    if (failed_)
        return now - failed_at_;
    return power_.state() == PowerState::kSleep ? now - power_.sleep_start()
                                                : 0;
}

Cycle
Router::open_port_sleep_cycles(Cycle now) const
{
    Cycle total = 0;
    if (params_.port_gating)
        for (const auto &pd : ports_)
            if (pd.state() == PowerState::kSleep)
                total += now - pd.sleep_start();
    return total;
}

ActivityCounters
Router::activity(Cycle now) const
{
    ActivityCounters a = activity_;
    a.sleep_cycles += open_sleep_cycles(now);
    a.active_cycles = now - a.sleep_cycles;
    a.port_sleep_cycles += open_port_sleep_cycles(now);
    return a;
}

int
Router::port_occupancy(Direction p) const
{
    int total = 0;
    for (int vc = 0; vc < params_.num_vcs; ++vc)
        total += static_cast<int>(vc_fifo(port_index(p), vc).size());
    return total;
}

int
Router::max_port_occupancy() const
{
    int best = 0;
    for (int p = 0; p < kNumPorts; ++p)
        best = std::max(best, port_occupancy(direction_from_index(p)));
    return best;
}

double
Router::avg_port_occupancy() const
{
    return static_cast<double>(total_occupancy()) / kNumPorts;
}

int
Router::total_occupancy() const
{
    return total_buffered_;
}

bool
Router::buffers_empty() const
{
    return total_buffered_ == 0;
}

int
Router::output_credits(Direction p, VcId vc) const
{
    return out_credits_[fifo_index(port_index(p), vc)];
}

int
Router::vc_occupancy(Direction p, VcId vc) const
{
    return static_cast<int>(vc_fifo(port_index(p), vc).size());
}

int
Router::pending_arrivals_for(Direction p, VcId vc) const
{
    int count = 0;
    for (const auto &a : arrivals_) {
        if (a.inport == p && a.flit.vc == vc)
            ++count;
    }
    return count;
}

int
Router::pending_credits_for(Direction p, VcId vc) const
{
    int count = 0;
    for (const auto &c : credit_events_) {
        if (c.port == p && c.vc == vc)
            ++count;
    }
    return count;
}

void
Router::corrupt_output_credit_for_test(Direction p, VcId vc, int delta)
{
    out_credits_[fifo_index(port_index(p), vc)] += delta;
}

bool
Router::vc_active(Direction p, VcId vc) const
{
    return vc_state_[fifo_index(port_index(p), vc)].active;
}

std::vector<int>
Router::arrival_lag_histogram(Direction inport, Cycle now,
                              int horizon) const
{
    std::vector<int> hist(static_cast<std::size_t>(horizon) + 1, 0);
    for (const auto &a : arrivals_) {
        if (a.inport != inport)
            continue;
        const Cycle lag = a.ready > now ? a.ready - now : 0;
        const auto capped =
            lag < static_cast<Cycle>(horizon) ? lag
                                              : static_cast<Cycle>(horizon);
        ++hist[static_cast<std::size_t>(capped)];
    }
    return hist;
}

CATNAP_PHASE_READ void
Router::Serialize(ckpt::Writer &w, Cycle now) const
{
    w.put_u64(fifos_.size());
    for (const RingFifo<Flit> &f : fifos_)
        ckpt::put_fifo(w, f);
    ckpt::put(w, vc_state_);
    ckpt::put(w, out_owner_);
    ckpt::put(w, out_credits_);
    ckpt::put(w, va_rr_);
    ckpt::put(w, sa_input_rr_);
    ckpt::put(w, sa_output_rr_);
    ckpt::put(w, arrivals_);
    ckpt::put(w, credit_events_);

    // The image holds the idle streak as a commit at every cycle leaves
    // it (a failed router's stays frozen).
    power_.Serialize(w, PowerDomain::CkptOrder::kRouter,
                     failed_ ? 0 : now - next_commit_);
    w.put_bool(failed_);
    w.put_bool(wake_stuck_);
    w.put_i32(total_buffered_);
    for (const auto &pd : ports_)
        pd.Serialize(w, PowerDomain::CkptOrder::kPort);

    w.put_u64(head_block_cycles_);
    w.put_u64(switched_flits_);
    ckpt::put(w, activity(now));
}

CATNAP_PHASE_WRITE void
Router::Deserialize(ckpt::Reader &r, Cycle now)
{
    ckpt::take_exact(r, fifos_.size(), "router input FIFO");
    for (RingFifo<Flit> &f : fifos_)
        ckpt::take_fifo(r, f);
    vc_state_ = ckpt::take_exact(r, vc_state_, "router VC state");
    out_owner_ = ckpt::take_exact(r, out_owner_, "router output owner");
    out_credits_ = ckpt::take_exact(r, out_credits_, "router output credit");
    va_rr_ = ckpt::take_exact(r, va_rr_, "router VA round-robin");
    sa_input_rr_ =
        ckpt::take_exact(r, sa_input_rr_, "router SA input round-robin");
    sa_output_rr_ =
        ckpt::take_exact(r, sa_output_rr_, "router SA output round-robin");
    arrivals_ = ckpt::take<std::vector<Arrival>>(r);
    credit_events_ = ckpt::take<std::vector<CreditEvent>>(r);

    power_.Deserialize(r, PowerDomain::CkptOrder::kRouter);
    failed_ = r.take_bool();
    wake_stuck_ = r.take_bool();
    total_buffered_ = r.take_i32();
    for (auto &pd : ports_)
        pd.Deserialize(r, PowerDomain::CkptOrder::kPort);

    head_block_cycles_ = r.take_u64();
    switched_flits_ = r.take_u64();
    activity_ = ckpt::take<ActivityCounters>(r);

    // Back to the settled form: the open periods are derived from
    // timestamps (a failed router's death is restarted at now), and
    // the image's streak is current as of now.
    failed_at_ = now;
    next_commit_ = now;
    activity_.sleep_cycles -= open_sleep_cycles(now);
    activity_.port_sleep_cycles -= open_port_sleep_cycles(now);
    activity_.active_cycles = 0;
}

#if defined(CATNAP_CHECKS) && CATNAP_CHECKS
// ----------------------------------------------------------------------
// Slot-scan oracle (CATNAP_CHECKS builds only, kept while the request
// walks are new). The allocators used to scan every [port][vc] slot in
// round-robin order. evaluate() still runs those scans on copies of the
// allocation state and panics where they decide otherwise than the
// walks, so every network a checked build simulates checks the walks.
// ----------------------------------------------------------------------

Router::SlotScan
Router::slot_scan(Cycle now) const
{
    const int num_vcs = params_.num_vcs;
    const int slots = kNumPorts * num_vcs;
    SlotScan s{vc_state_, out_owner_, va_rr_, sa_input_rr_, sa_output_rr_,
               {}};

    for (int out = 0; out < kNumPorts; ++out) {
        int granted = 0;
        for (int i = 0; i < slots && granted < num_vcs; ++i) {
            const int slot =
                (s.va_rr[static_cast<std::size_t>(out)] + i) % slots;
            const int inport = slot / num_vcs;
            if (inport == out)
                continue;
            auto &st = s.vc_state[static_cast<std::size_t>(slot)];
            const auto &fifo = fifos_[static_cast<std::size_t>(slot)];
            if (st.active || fifo.empty())
                continue;
            const Flit &head = fifo.front();
            if (!head.is_head() || port_index(head.out_dir) != out)
                continue;
            const int cls = static_cast<int>(head.mc) % params_.num_classes;
            int base = params_.first_vc_of_class(cls);
            int span = params_.vcs_per_class();
            if (mesh_.is_torus() && head.out_dir != Direction::kLocal) {
                span /= 2;
                if (head.wrapped || mesh_.link_wraps(node_, head.out_dir))
                    base += span;
            }
            VcId chosen = kInvalidVc;
            for (int v = 0; v < span; ++v) {
                if (s.out_owner[fifo_index(out, base + v)] == 0) {
                    chosen = base + v;
                    break;
                }
            }
            if (chosen == kInvalidVc)
                continue;
            s.out_owner[fifo_index(out, chosen)] =
                static_cast<std::int64_t>(head.pkt) + 1;
            st.active = true;
            st.out_dir = head.out_dir;
            st.out_vc = chosen;
            ++granted;
            s.va_rr[static_cast<std::size_t>(out)] = (slot + 1) % slots;
        }
    }

    s.grants.nominee_vc.fill(-1);
    s.grants.winner_in.fill(-1);
    for (int inport = 0; inport < kNumPorts; ++inport) {
        for (int i = 0; i < num_vcs; ++i) {
            const int invc =
                (s.sa_input_rr[static_cast<std::size_t>(inport)] + i)
                % num_vcs;
            const auto idx = fifo_index(inport, invc);
            const auto &st = s.vc_state[idx];
            if (!st.active || fifos_[idx].empty())
                continue;
            const int out = port_index(st.out_dir);
            if (out_credits_[fifo_index(out, st.out_vc)] <= 0)
                continue;
            if (st.out_dir != Direction::kLocal &&
                !neighbors_[static_cast<std::size_t>(out)]->can_accept_at(
                    opposite(st.out_dir),
                    now + static_cast<Cycle>(params_.st_delay
                                             + params_.link_delay))) {
                continue;
            }
            auto &nominee =
                s.grants.nominee_vc[static_cast<std::size_t>(inport)];
            if (nominee < 0)
                nominee = invc;
        }
    }
    for (int out = 0; out < kNumPorts; ++out) {
        for (int i = 0; i < kNumPorts; ++i) {
            const int inport =
                (s.sa_output_rr[static_cast<std::size_t>(out)] + i)
                % kNumPorts;
            const int invc =
                s.grants.nominee_vc[static_cast<std::size_t>(inport)];
            if (invc < 0 ||
                port_index(s.vc_state[fifo_index(inport, invc)].out_dir) !=
                    out) {
                continue;
            }
            s.grants.winner_in[static_cast<std::size_t>(out)] = inport;
            s.sa_output_rr[static_cast<std::size_t>(out)] =
                (inport + 1) % kNumPorts;
            break;
        }
    }
    return s;
}

void
Router::check_slot_scan(const SlotScan &scan, const SwitchGrants &g,
                        Cycle now) const
{
    const char *differs = nullptr;
    if (scan.vc_state != vc_state_ || scan.out_owner != out_owner_)
        differs = "the VC grants";
    else if (scan.va_rr != va_rr_)
        differs = "the VC allocation pointers";
    else if (scan.grants.nominee_vc != g.nominee_vc)
        differs = "the switch nominees";
    else if (scan.grants.winner_in != g.winner_in)
        differs = "the switch winners";
    else if (scan.sa_input_rr != sa_input_rr_ ||
             scan.sa_output_rr != sa_output_rr_)
        differs = "the switch allocation pointers";
    if (differs) {
        CATNAP_PANIC("request walk and slot scan disagree on ", differs,
                     " at node ", node_, " subnet ", subnet_, " cycle ",
                     now);
    }
}
#endif

} // namespace catnap
