/**
 * @file
 * Power-gating policies (Sections 3.1, 3.3, 6.1).
 *
 * The policies run once per cycle in the policy phase, after all routers
 * and NIs have committed and the congestion detector has updated. A
 * policy (1) services look-ahead wake requests, (2) performs
 * policy-specific wake-ups (Catnap wakes subnet-h routers when the RCS
 * of subnet h-1 sets), and (3) puts eligible routers to sleep.
 *
 * The policy owns the live set: one byte per router, which MultiNoc::tick
 * and CongestionState::update consult too. A policy visits live routers
 * only (Catnap also visits all of subnet h while subnet h-1 may be
 * congested) and retires a router at the end of its visit when it is
 * Router::dormant(); the router's mailbox calls and power transitions
 * set its byte again. While a fault plan is engaged no router retires.
 */
#ifndef CATNAP_CATNAP_GATING_H
#define CATNAP_CATNAP_GATING_H

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "ckpt/fwd.h"
#include "common/phase.h"
#include "common/types.h"

namespace catnap {

class Router;
class CongestionState;
class ConcentratedMesh;
class WakeFaultModel;

/** Available power-gating policies. */
enum class GatingKind : int {
    kAlwaysOn = 0, ///< no power gating (baseline designs without -PG)
    kIdle = 1,     ///< Matsutani-style [21]: gate on idle, wake on signal
    kCatnap = 2,   ///< the paper's RCS-coupled policy (Figure 5)
    /**
     * Fine-grained per-port gating (Matsutani et al. [20], discussed in
     * Section 7.1 as complementary): input ports gate individually; the
     * shared crossbar/clock/control never do. Only the per-port share
     * of buffer and link leakage can be saved.
     */
    kFinePort = 3,
};

/** Human-readable policy name. */
const char *gating_kind_name(GatingKind k);

/**
 * Base class for gating policies. The policy owns no routers; it drives
 * the power FSM of the routers registered with it.
 */
class GatingPolicy
{
  public:
    virtual ~GatingPolicy() = default;

    /**
     * Registers the routers of subnet @p s, indexed by node, and hands
     * each its live byte (initially set). Every subnet must register
     * the same number of routers.
     */
    void attach(SubnetId s, std::vector<Router *> routers);

    /** Runs one policy step (the per-cycle policy phase). */
    CATNAP_PHASE_WRITE virtual void step(Cycle now) = 0;

    /** True if the policy may ever put a router of subnet @p s to sleep
     * (see Router::dormant()). */
    virtual bool gateable(SubnetId s) const = 0;

    /** The live byte of every attached router, [subnet][node]. */
    const std::vector<std::vector<std::uint8_t>> &live() const
    {
        return live_;
    }

    /**
     * Enables the fault model (src/fault; DESIGN.md §10): look-ahead
     * wakes are routed through the model's loss/delay interception, and
     * a wake that fails to complete within t_wake_timeout is re-asserted
     * with bounded exponential backoff (retry i fires
     * t_wake_timeout * (2^i - 1) cycles after the wake went pending) and
     * escalated to a hard router failure after max_wake_retries. Called
     * by MultiNoc when the fault plan is non-empty; the model checker
     * (tools/model/) engages its own WakeFaultModel here. Not owned.
     */
    void engage_fault_mode(WakeFaultModel *fault) { fault_ = fault; }

    /** Wake-retry bookkeeping for one router. */
    struct WakeRetryState
    {
        Cycle pending_since = kNoCycle; ///< kNoCycle: no wake pending
        Cycle next_check = kNoCycle;
        int retries = 0;

        /** Field list (ckpt/fields.h). */
        template <typename V, typename T>
        friend ckpt::If<T, WakeRetryState>
        fields(const V &v, T &s)
        {
            v(s.pending_since);
            v(s.next_check);
            v(s.retries);
        }
    };

    /**
     * Retry bookkeeping for (subnet @p s, node @p n); a default state
     * when the scan has not allocated that slot yet. Read-only
     * visibility for the model checker's state vector and for tests.
     */
    const WakeRetryState &retry_state(SubnetId s, NodeId n) const;

    // -- Checkpointing (src/ckpt; DESIGN.md §13) ---------------------------

    /**
     * Appends the wake-retry bookkeeping (the only state a policy
     * evolves; the retry table is lazily allocated, so its exact shape
     * is serialized). Router attachments and the fault model are wiring,
     * rebuilt by the MultiNoc constructor on restore.
     */
    CATNAP_COLD_PATH CATNAP_PHASE_READ void Serialize(ckpt::Writer &w) const;

    /** Restores what Serialize() wrote, and rebuilds each live byte as
     * !dormant(), which is what it is between ticks. Call after the
     * routers are restored. */
    CATNAP_COLD_PATH CATNAP_PHASE_WRITE void Deserialize(ckpt::Reader &r);

  protected:
    /** Clears the live byte of router @p n of subnet @p s if it is
     * dormant (never while a fault plan is engaged); @p gateable is
     * gateable(s). */
    CATNAP_PHASE_WRITE void retire_if_dormant(std::size_t s, std::size_t n,
                                              bool gateable);

    /** Services wake requests for every attached router's own domain,
     * or for the domain gating input @p port (fine-grained gating). */
    CATNAP_PHASE_WRITE void
    service_wake_requests(Cycle now,
                          std::optional<Direction> port = std::nullopt);

    /** Wake-retry/escalation scan; no-op without a fault model. */
    CATNAP_PHASE_WRITE void service_wake_retries(Cycle now);

    std::vector<std::vector<Router *>> routers_; // [subnet][node]
    std::vector<std::vector<std::uint8_t>> live_; // [subnet][node]
    WakeFaultModel *fault_ = nullptr;
    std::vector<std::vector<WakeRetryState>> retry_; // [subnet][node]
};

/** No gating: wake requests are cleared, routers stay Active forever. */
class AlwaysOnPolicy final : public GatingPolicy
{
  public:
    void step(Cycle now) override;
    bool gateable(SubnetId) const override { return false; }
};

/**
 * The baseline runtime gating policy [21] used for Single-NoC and the
 * round-robin Multi-NoC baseline: a router sleeps when its buffers have
 * been empty for t_idle_detect cycles; it wakes only on look-ahead wake
 * signals (or NI injection intent).
 */
class IdleGatingPolicy final : public GatingPolicy
{
  public:
    void step(Cycle now) override;
    bool gateable(SubnetId) const override { return true; }
};

/**
 * Fine-grained per-port gating: idle gating applied to each input
 * port's PowerDomain, which sleeps independently when idle and wakes on
 * the port-addressed look-ahead signal.
 */
class FinePortGatingPolicy final : public GatingPolicy
{
  public:
    void step(Cycle now) override;
    bool gateable(SubnetId) const override { return true; }
};

/**
 * Catnap's policy (Figure 5): in addition to the idle-detect condition,
 * a router in subnet h may sleep only while the congestion signal of
 * subnet h-1 in its region is clear, and is woken as soon as that signal
 * sets. Subnet 0 never sleeps.
 */
class CatnapGatingPolicy final : public GatingPolicy
{
  public:
    /**
     * @param mesh topology (for region lookup)
     * @param congestion congestion signals (not owned)
     */
    CatnapGatingPolicy(const ConcentratedMesh &mesh,
                       const CongestionState *congestion);

    void step(Cycle now) override;
    bool gateable(SubnetId s) const override { return s != 0; }

  private:
    const ConcentratedMesh &mesh_;
    const CongestionState *congestion_;
};

/** Factory for the gating policy matching @p kind. */
std::unique_ptr<GatingPolicy>
make_gating_policy(GatingKind kind, const ConcentratedMesh &mesh,
                   const CongestionState *congestion);

} // namespace catnap

#endif // CATNAP_CATNAP_GATING_H
