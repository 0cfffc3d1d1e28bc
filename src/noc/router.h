/**
 * @file
 * Two-stage speculative input-buffered virtual-channel router with
 * wormhole switching, look-ahead X-Y routing, credit-based flow control,
 * and power gating (Sections 2.1, 3.1, 3.3 of the paper). The gating FSM
 * is a PowerDomain (noc/power_domain.h): one for the router, and one per
 * input port for fine-grained per-port gating (Matsutani [20]).
 *
 * Pipeline model: a flit that is visible in an input buffer at cycle t
 * may perform VC allocation and (speculative) switch allocation in the
 * same evaluate step; a switch-allocation winner traverses the crossbar
 * and the output link, becoming visible in the downstream buffer at
 * t + st_delay + link_delay (3-cycle per-hop latency with the default
 * 1+1+1 parameters, matching a 2-stage router plus a 1-cycle link).
 *
 * Simulation discipline: each cycle runs three phases over the live
 * routers (GatingPolicy::live()) — evaluate() (reads only state
 * committed in previous cycles; queues effects), commit() (applies
 * queued arrivals/credits, completes wake-ups and tracks idleness), and
 * a policy phase owned by the gating policy (wake/sleep transitions).
 * This two-phase-plus-policy structure makes results independent of
 * router iteration order. A router leaves the live set when dormant():
 * a visit would then change nothing but its cycle counts. Every mailbox
 * call and power transition brings it back. The cycles it skipped are
 * derived from timestamps: power residency from its sleep periods
 * (activity()), and the idle streak at its next commit() or Serialize().
 */
#ifndef CATNAP_NOC_ROUTER_H
#define CATNAP_NOC_ROUTER_H

#include <array>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "ckpt/fwd.h"
#include "common/phase.h"
#include "common/types.h"
#include "noc/buffer.h"
#include "noc/flit.h"
#include "noc/params.h"
#include "noc/power_domain.h"
#include "obs/event.h"
#include "power/activity.h"
#include "topology/topology.h"

namespace catnap {

/**
 * Interface the router uses to talk to the node's network interface over
 * its local port: ejecting flits and returning injection credits.
 */
class LocalPortClient
{
  public:
    virtual ~LocalPortClient() = default;

    /** A credit for VC @p vc of the local input port, usable at @p ready.
     * A declared mailbox crossing: the router appends into the NI's
     * staging queues during evaluate (order-independent). */
    CATNAP_SHARD_SAFE CATNAP_PHASE_READ virtual void
    return_local_credit(VcId vc, Cycle ready) = 0;

    /** Flit ejected through the local output port, arriving at @p ready. */
    CATNAP_SHARD_SAFE CATNAP_PHASE_READ virtual void
    eject_flit(const Flit &flit, Cycle ready) = 0;
};

/**
 * One router of one subnet. See file comment for the pipeline and
 * phasing model.
 */
class Router
{
  public:
    /**
     * Creates a router.
     *
     * @param node its position in the mesh
     * @param subnet which subnet it belongs to (0 == lowest order)
     * @param params structural/timing parameters shared by the subnet
     * @param mesh the topology (used for look-ahead route computation)
     */
    Router(NodeId node, SubnetId subnet, const SubnetParams &params,
           const ConcentratedMesh &mesh);

    /** Wires the neighbour in direction @p d (nullptr at mesh edges). */
    void connect(Direction d, Router *neighbor);

    /** Registers the NI-side client of the local port. */
    void set_local_client(LocalPortClient *client) { local_client_ = client; }

    /** Attaches the trace-event sink (null disables emission). */
    void set_sink(EventSink *sink) { sink_ = sink; }

    // ------------------------------------------------------------------
    // Per-cycle phases
    // ------------------------------------------------------------------

    /** Phase 1: VC allocation + switch allocation + traversal decisions. */
    CATNAP_PHASE_READ void evaluate(Cycle now);

    /** Phase 2: apply queued arrivals and credits; advance power FSM.
     * Commits skipped since the last one count as empty cycles. */
    CATNAP_PHASE_WRITE void commit(Cycle now);

    // ------------------------------------------------------------------
    // Live set (owned by the gating policy; see the file comment)
    // ------------------------------------------------------------------

    /** Points the router at its live byte (the gating policy's). */
    void set_live_flag(std::uint8_t *flag) { live_ = flag; }

    /** Sets the live byte. Only ever sets it, so the write is
     * order-independent like the other mailboxes. */
    CATNAP_SHARD_SAFE CATNAP_PHASE_READ void
    mark_live()
    {
        if (live_)
            *live_ = 1;
    }

    /** True unless the gating policy has retired the router. */
    bool live() const { return !live_ || *live_ != 0; }

    /**
     * True when a tick would change nothing but the router's cycle
     * counts: it works, port gating is off, nothing is buffered or
     * inbound, no wake is requested, its idle streak has reached
     * t_idle_detect, and it is asleep, or Active when its policy never
     * gates it (@p gateable false).
     */
    bool dormant(bool gateable) const;

    // ------------------------------------------------------------------
    // Upstream-facing interface (called by neighbours / the NI)
    // ------------------------------------------------------------------

    /**
     * Hands over a flit that will be written into input port @p inport
     * at cycle @p ready. The caller must have checked can_accept_at().
     */
    CATNAP_SHARD_SAFE CATNAP_PHASE_READ void deliver_flit(const Flit &flit,
                                        Direction inport, Cycle ready);

    /** Returns a credit for output port @p port, VC @p vc at @p ready. */
    CATNAP_SHARD_SAFE CATNAP_PHASE_READ void deliver_credit(Direction port, VcId vc,
                                          Cycle ready);

    // The next three address the domain gating input @p inport: its own
    // under fine-grained gating (Matsutani [20]), else the router's.

    /**
     * Look-ahead wake signal (Section 3.3): asks the gating policy to
     * wake @p inport's domain in the current cycle's policy phase.
     */
    CATNAP_SHARD_SAFE CATNAP_PHASE_READ void
    request_wakeup(Direction inport)
    {
        mark_live();
        domain(inport).request_wake();
    }

    /**
     * Announces that a packet head bound for @p inport has been
     * committed one hop upstream (or entered the NI's injection slot)
     * and will eventually arrive. Domains with announced packets refuse
     * to sleep.
     */
    CATNAP_SHARD_SAFE CATNAP_PHASE_READ void
    note_expected_packet(Direction inport)
    {
        mark_live();
        domain(inport).expect_packet();
    }

    /** True if input port @p inport can take a flit arriving at @p arrival. */
    bool
    can_accept_at(Direction inport, Cycle arrival) const
    {
        return !failed_ && domain(inport).accepts_at(arrival);
    }

    // ------------------------------------------------------------------
    // Power FSM (driven by the gating policy in the policy phase). Each
    // call addresses one PowerDomain: the router's own when @p port is
    // omitted, else the one gating input @p port (see above).
    // ------------------------------------------------------------------

    /** Current power state. */
    PowerState
    power_state(std::optional<Direction> port = std::nullopt) const
    {
        return domain(port).state();
    }

    /** Cycle at which the router's wake-up in progress completes. */
    Cycle wake_done_cycle() const { return power_.wake_done(); }

    /** True if a look-ahead wake signal arrived this cycle. */
    bool
    wake_requested(std::optional<Direction> port = std::nullopt) const
    {
        return domain(port).wake_requested();
    }

    /** Clears the wake-request flag (policy phase). */
    CATNAP_SHARD_SAFE CATNAP_PHASE_WRITE void
    clear_wake_request(std::optional<Direction> port = std::nullopt)
    {
        domain(port).clear_wake_request();
    }

    /**
     * True when the domain satisfies every structural condition for
     * sleeping: Active, its buffers empty for >= t_idle_detect cycles,
     * no in-flight arrivals, no announced packets, and no packet holding
     * a VC mid-stream at any input it gates. The gating policy adds its
     * own conditions on top (e.g. Catnap's RCS check).
     */
    bool can_sleep(std::optional<Direction> port = std::nullopt) const;

    /** Transitions Active -> Sleep (policy phase). */
    CATNAP_SHARD_SAFE CATNAP_PHASE_WRITE void
    enter_sleep(Cycle now, std::optional<Direction> port = std::nullopt);

    /** Starts Sleep -> Wakeup -> Active; no-op unless sleeping. @p reason
     * is recorded on the emitted trace event only. */
    CATNAP_SHARD_SAFE CATNAP_PHASE_WRITE void
    begin_wakeup(Cycle now, WakeReason reason = WakeReason::kLookahead,
                 std::optional<Direction> port = std::nullopt);

    // ------------------------------------------------------------------
    // Fault model (src/fault; DESIGN.md §10)
    // ------------------------------------------------------------------

    /** True once a hard fault has removed this router from service. */
    bool failed() const { return failed_; }

    /**
     * Wake-stuck fault: while set, begin_wakeup() and retry_wakeup()
     * arm a wake that never completes (wake_done = kNoCycle), modelling
     * a wake sequence that hangs until the gating layer escalates.
     */
    CATNAP_SHARD_SAFE CATNAP_PHASE_WRITE void
    set_wake_stuck(bool stuck)
    {
        mark_live();
        wake_stuck_ = stuck;
    }
    bool wake_stuck() const { return wake_stuck_; }

    /**
     * Re-arms an in-progress wake-up (gating wake-retry path): restarts
     * the t_wakeup countdown as if the wake signal were re-asserted.
     * No-op unless the router is in kWakeup.
     */
    CATNAP_SHARD_SAFE CATNAP_PHASE_WRITE void retry_wakeup(Cycle now);

    /**
     * Hard router failure: every buffered and in-flight flit is moved
     * into @p dropped (the fault controller accounts them and notifies
     * the source NIs), all allocation and power state is cleared, and
     * the router permanently refuses service. A failed router holds no
     * flits and accounts its cycles from @p now on as sleep (a dead
     * router leaks nothing the power model should charge for).
     */
    CATNAP_SHARD_SAFE CATNAP_PHASE_WRITE void fail(std::vector<Flit> *dropped,
                                                   Cycle now);

    /**
     * Folds every domain's in-progress sleep period into the CSC
     * counters without waking it (call at the end of a measurement
     * interval so still-sleeping domains are credited for their sleep
     * so far).
     */
    CATNAP_PHASE_WRITE void flush_sleep_accounting(Cycle now);

    // ------------------------------------------------------------------
    // Observability (congestion metrics, tests, power model)
    // ------------------------------------------------------------------

    /** Flits buffered across all VCs of input port @p p. */
    int port_occupancy(Direction p) const;

    /** Maximum port occupancy over all input ports (the BFM metric). */
    int max_port_occupancy() const;

    /** Mean port occupancy over all input ports (the BFA metric). */
    double avg_port_occupancy() const;

    /** Total flits buffered in the router. */
    int total_occupancy() const;

    /** True if every input buffer is empty. */
    bool buffers_empty() const;

    /** Consecutive cycles with all buffers empty, exact as of the last
     * commit() (a dormant router's skipped commits are added at its
     * next one). */
    int idle_streak() const { return power_.idle_streak(); }

    /** Cumulative cycles head flits spent blocked (Delay metric input). */
    std::uint64_t head_block_cycles() const { return head_block_cycles_; }

    /** Cumulative flits that won switch allocation (Delay metric input). */
    std::uint64_t switched_flits() const { return switched_flits_; }

    /** Activity counters for the power model after @p now cycles (the
     * router is counted once per cycle from cycle 0: residency is
     * derived from its sleep periods). */
    ActivityCounters activity(Cycle now) const;

    /** Credits one NI-side flit transfer to this router's activity
     * counters. An order-independent mailbox: the NI bumps its local
     * routers' monotonic counters during evaluate/commit, so this
     * replaces direct writes through a mutable activity() accessor
     * (which rule L7 rejects as an undeclared cross-shard write). */
    CATNAP_SHARD_SAFE CATNAP_PHASE_READ void
    note_ni_flit()
    {
        activity_.ni_flits += 1;
    }

    /** Node this router serves. */
    NodeId node() const { return node_; }

    /** Subnet this router belongs to. */
    SubnetId subnet() const { return subnet_; }

    /** Credits available on output port @p p, VC @p vc (tests). */
    int output_credits(Direction p, VcId vc) const;

    /** Number of queued (not yet committed) arrivals (tests). */
    std::size_t pending_arrivals() const { return arrivals_.size(); }

    /** Announced packets not yet arrived at the router's own domain. */
    int expected_packets() const { return power_.expected(); }

    // ------------------------------------------------------------------
    // Invariant-engine accessors (src/check): per-link conservation
    // arithmetic needs VC-granular visibility into buffers and the
    // in-flight arrival/credit queues.
    // ------------------------------------------------------------------

    /** Flits buffered in VC @p vc of input port @p p. */
    int vc_occupancy(Direction p, VcId vc) const;

    /** Queued (not yet committed) arrivals for input port @p p, VC @p vc. */
    int pending_arrivals_for(Direction p, VcId vc) const;

    /** In-flight credits queued toward output port @p p, VC @p vc. */
    int pending_credits_for(Direction p, VcId vc) const;

    /**
     * Test-only fault injection: skews the credit counter of output port
     * @p p, VC @p vc by @p delta so fault-injection tests can prove the
     * credit-conservation invariant fires. Never call outside tests.
     */
    void corrupt_output_credit_for_test(Direction p, VcId vc, int delta);

    // ------------------------------------------------------------------
    // Model-checker accessors and hooks (tools/model/; DESIGN.md §11)
    // ------------------------------------------------------------------

    /** True if a packet currently holds VC @p vc of input port @p p. */
    bool vc_active(Direction p, VcId vc) const;

    /**
     * Histogram of in-flight arrival readiness for input port
     * @p inport relative to @p now: bucket d counts queued arrivals
     * becoming visible at now + d, with everything at or beyond
     * @p horizon clamped into the last bucket. The model checker folds
     * this into its state vector so two states differing only in
     * arrival timing never alias.
     */
    std::vector<int> arrival_lag_histogram(Direction inport, Cycle now,
                                           int horizon) const;

    /**
     * Seeded-mutation hook (tools/model/ self-test ONLY): reintroduces
     * the known-bad gating variant in which idle detection and buffer
     * occupancy are ignored by can_sleep() and enter_sleep() skips its
     * empty-buffer assertion. The model checker's mutation test proves
     * property P4 (no sleep with occupied buffers) catches it with a
     * minimal counterexample. Never set in simulation code.
     */
    void set_model_unsafe_sleep_for_test(bool on)
    {
        unsafe_sleep_for_test_ = on;
    }

    // ------------------------------------------------------------------
    // Checkpointing (src/ckpt; DESIGN.md §13)
    // ------------------------------------------------------------------

    /**
     * Appends every data member that evolves during simulation (buffers,
     * allocation state, in-flight events, power FSM, counters), with
     * residency and idle streak settled as of @p now cycles. Wiring
     * (neighbours, NI client, trace sink, live byte) and test-only hooks
     * are not serialized: the MultiNoc constructor rebuilds them on
     * restore.
     */
    CATNAP_COLD_PATH CATNAP_PHASE_READ void Serialize(ckpt::Writer &w,
                                                      Cycle now) const;

    /** Restores what Serialize() wrote at @p now into an identically
     * configured router. */
    CATNAP_COLD_PATH CATNAP_PHASE_WRITE void Deserialize(ckpt::Reader &r,
                                                         Cycle now);

  private:
    /** Per-input-VC packet-in-progress state. */
    struct InputVcState
    {
        bool active = false;            ///< a packet holds this VC
        Direction out_dir = Direction::kLocal; ///< its output port here
        VcId out_vc = kInvalidVc;       ///< allocated downstream VC
        Cycle head_since = 0;           ///< when current front became head

        /** Field-wise equality (the slot-scan oracle compares states). */
        friend bool operator==(const InputVcState &,
                               const InputVcState &) = default;

        /** Field list (ckpt/fields.h). */
        template <typename V, typename T>
        friend ckpt::If<T, InputVcState>
        fields(const V &v, T &s)
        {
            v(s.active);
            v(s.out_dir);
            v(s.out_vc);
            v(s.head_since);
        }
    };

    /** A flit in flight toward one of our input buffers. */
    struct Arrival
    {
        Cycle ready;
        Direction inport;
        Flit flit;

        /** Field list (ckpt/fields.h). */
        template <typename V, typename T>
        friend ckpt::If<T, Arrival>
        fields(const V &v, T &a)
        {
            v(a.ready);
            v(a.inport);
            v(a.flit);
        }
    };

    /** A credit in flight toward one of our output-port counters. */
    struct CreditEvent
    {
        Cycle ready;
        Direction port;
        VcId vc;

        /** Field list (ckpt/fields.h). */
        template <typename V, typename T>
        friend ckpt::If<T, CreditEvent>
        fields(const V &v, T &c)
        {
            v(c.ready);
            v(c.port);
            v(c.vc);
        }
    };

    /**
     * Allocation requests, built by evaluate() in one pass over the
     * input VCs each time it runs (never stored, so nothing has to keep
     * them in step with the buffers).
     */
    struct Requests
    {
        /** Per output port: the [port][vc] slots whose head flit waits
         * for a VC there. */
        std::array<std::uint32_t, kNumPorts> va{};
        /** Per input port: the VCs that hold an output VC and a flit. */
        std::array<std::uint32_t, kNumPorts> sa{};
    };

    /** Switch allocation's outcome, -1 where there is none. */
    struct SwitchGrants
    {
        std::array<int, kNumPorts> nominee_vc; ///< per input port
        std::array<int, kNumPorts> winner_in;  ///< per output port
    };

    CATNAP_PHASE_READ Requests requests() const;
    CATNAP_PHASE_READ void run_vc_allocation(Requests &req);
    CATNAP_PHASE_READ SwitchGrants run_switch_allocation(Cycle now,
                                                         const Requests &req);
    CATNAP_PHASE_READ bool downstream_accepts(int out, Cycle now) const;
    CATNAP_PHASE_READ void traverse(Cycle now, const SwitchGrants &g);

#if defined(CATNAP_CHECKS) && CATNAP_CHECKS
    /** What the slot scans the request walks replaced decide for one
     * evaluate(), run on copies of the allocation state (router.cc,
     * "Slot-scan oracle"). */
    struct SlotScan
    {
        std::vector<InputVcState> vc_state;
        std::vector<std::int64_t> out_owner;
        std::vector<int> va_rr;
        std::vector<int> sa_input_rr;
        std::vector<int> sa_output_rr;
        SwitchGrants grants;
    };
    CATNAP_PHASE_READ SlotScan slot_scan(Cycle now) const;
    CATNAP_PHASE_READ void check_slot_scan(const SlotScan &scan,
                                           const SwitchGrants &g,
                                           Cycle now) const;
#endif
    CATNAP_PHASE_WRITE void apply_arrivals(Cycle now);
    CATNAP_PHASE_WRITE void apply_credits(Cycle now);

    RingFifo<Flit> &vc_fifo(int port, int vc) { return fifos_[fifo_index(port, vc)]; }
    const RingFifo<Flit> &vc_fifo(int port, int vc) const
    {
        return fifos_[fifo_index(port, vc)];
    }
    std::size_t
    fifo_index(int port, int vc) const
    {
        return static_cast<std::size_t>(port * params_.num_vcs + vc);
    }

    NodeId node_;
    SubnetId subnet_;
    const SubnetParams &params_;
    const ConcentratedMesh &mesh_;

    std::array<Router *, kNumPorts> neighbors_{};
    LocalPortClient *local_client_ = nullptr;
    EventSink *sink_ = nullptr;

    /** Input buffers: [port][vc] flattened. */
    std::vector<RingFifo<Flit>> fifos_;
    std::vector<InputVcState> vc_state_; // same indexing as fifos_

    /** Output-side bookkeeping: [port][vc] flattened. */
    std::vector<std::int64_t> out_owner_; // packet id + 1, 0 == free
    std::vector<int> out_credits_;

    /** Round-robin pointers: per output port for VA, per input/output for SA. */
    std::vector<int> va_rr_;          // per output port, over port*vc slots
    std::vector<int> sa_input_rr_;    // per input port, over vcs
    std::vector<int> sa_output_rr_;   // per output port, over input ports

    std::vector<Arrival> arrivals_;
    std::vector<CreditEvent> credit_events_;

    /** True if a power call for @p port addresses the router's own
     * domain: @p port omitted, or router-level gating. */
    bool
    router_level(std::optional<Direction> port) const
    {
        return !port || !params_.port_gating;
    }

    /** The domain a power call for @p port addresses. */
    const PowerDomain &
    domain(std::optional<Direction> port) const
    {
        return router_level(port)
                   ? power_
                   : ports_[static_cast<std::size_t>(port_index(*port))];
    }
    PowerDomain &
    domain(std::optional<Direction> port)
    {
        return const_cast<PowerDomain &>(std::as_const(*this).domain(port));
    }

    /** Adds a settled sleep period's credit to @p port's CSC counters. */
    CATNAP_PHASE_WRITE void credit_sleep(std::optional<Direction> port,
                                         SleepCredit c);

    /** Router-level sleep cycles of the open period up to @p now: the
     * current sleep, or the time since the router failed. */
    Cycle open_sleep_cycles(Cycle now) const;

    /** Port-cycles of the ports' open sleep periods up to @p now. */
    Cycle open_port_sleep_cycles(Cycle now) const;

    // Power / gating state
    PowerDomain power_; ///< the whole router
    bool failed_ = false;
    bool wake_stuck_ = false;
    bool unsafe_sleep_for_test_ = false; ///< seeded-mutation hook (§11)

    int total_buffered_ = 0;

    std::uint8_t *live_ = nullptr; ///< the gating policy's live byte
    Cycle next_commit_ = 0; ///< first cycle commit() has not accounted
    Cycle failed_at_ = 0;   ///< when the router failed (while failed_)

    std::array<PowerDomain, kNumPorts> ports_{}; ///< fine-grained gating only

    // Delay-metric instrumentation
    std::uint64_t head_block_cycles_ = 0;
    std::uint64_t switched_flits_ = 0;

    /** Event counters; of the residency fields, sleep_cycles and
     * port_sleep_cycles hold settled periods only and active_cycles
     * stays 0 (activity() derives all three). */
    ActivityCounters activity_;
};

} // namespace catnap

#endif // CATNAP_NOC_ROUTER_H
