/**
 * @file
 * Open-loop synthetic traffic generation: per-node Bernoulli packet
 * injection at a configurable offered load (packets/node/cycle), with
 * optional time-varying load schedules for the bursty-traffic experiment
 * (Section 6.5, Figure 12).
 */
#ifndef CATNAP_TRAFFIC_SYNTHETIC_H
#define CATNAP_TRAFFIC_SYNTHETIC_H

#include <functional>
#include <memory>
#include <vector>

#include "ckpt/fwd.h"
#include "common/rng.h"
#include "common/types.h"
#include "noc/flit.h"
#include "traffic/pattern.h"
#include "common/phase.h"

namespace catnap {

class MultiNoc;
class TraceRecorder;

/** Configuration of a synthetic traffic source. */
struct SyntheticConfig
{
    PatternKind pattern = PatternKind::kUniformRandom;

    /** Offered load in packets per node per cycle (long-run average). */
    double load = 0.1;

    /** Packet size in bits (Section 4.1: 512-bit synthetic packets). */
    int packet_bits = 512;

    /** Message class for all synthetic packets. */
    MessageClass mc = MessageClass::kRequest;

    /**
     * Per-node Markov-modulated bursts [10, 22]: each node alternates
     * independent ON/OFF phases with geometrically distributed lengths.
     * During ON phases the node injects at load / burst_on_fraction so
     * the long-run average stays at `load`; OFF phases inject nothing.
     * Unlike a global LoadSchedule, this creates the spatially
     * non-uniform demand the regional congestion detector exists for.
     */
    bool node_bursts = false;
    double burst_on_fraction = 0.3;
    double burst_mean_len = 500.0;
};

/**
 * A load schedule maps the current cycle to an absolute offered load,
 * enabling burst experiments. Without one the load is the constant
 * SyntheticConfig::load.
 */
using LoadSchedule = std::function<double(Cycle)>;

/**
 * Builds the two-burst schedule of Figure 12: a base load of 0.01
 * packets/node/cycle, a burst to 0.30 during cycles [1000, 1500), and a
 * second burst to 0.10 during cycles [2000, 2500).
 */
LoadSchedule figure12_burst_schedule();

/**
 * Drives a MultiNoc with synthetic traffic. Call step() once per cycle
 * *before* MultiNoc::tick().
 */
class SyntheticTraffic
{
  public:
    /**
     * @param net network to drive (not owned)
     * @param cfg pattern / load / sizing
     * @param seed RNG seed (per-node streams derive from it)
     */
    SyntheticTraffic(MultiNoc *net, const SyntheticConfig &cfg,
                     std::uint64_t seed);

    /** Replaces the constant load with @p schedule (until cleared with
     * an empty one). */
    void set_schedule(LoadSchedule schedule)
    {
        schedule_ = std::move(schedule);
    }

    /** Records every generated packet (not owned; may be null). */
    void set_recorder(TraceRecorder *recorder) { recorder_ = recorder; }

    /** Generates this cycle's packets and offers them to the NIs. */
    CATNAP_PHASE_WRITE void step(Cycle now);

    /** Packets generated so far. */
    std::uint64_t generated() const { return generated_; }

    // -- Checkpointing (src/ckpt; DESIGN.md §13) ---------------------------

    /**
     * Appends the generator's evolving state (pattern RNG, per-node
     * streams, burst phases, packet id counter). A custom LoadSchedule
     * installed via set_schedule() is NOT serialized: constant-load
     * generators (the default) restore exactly; schedule-driven runs
     * must re-install their schedule after restore, which is pure
     * (cycle -> load) and therefore resumes bit-identically.
     */
    CATNAP_COLD_PATH CATNAP_PHASE_READ void Serialize(ckpt::Writer &w) const;

    /** Restores what Serialize() wrote into a generator built with the
     * same config and network. */
    CATNAP_COLD_PATH CATNAP_PHASE_WRITE void Deserialize(ckpt::Reader &r);

  private:
    struct NodePhase
    {
        bool on = true;
        Cycle until = 0;

        /** Field list (ckpt/fields.h). */
        template <typename V, typename T>
        friend ckpt::If<T, NodePhase>
        fields(const V &v, T &p)
        {
            v(p.on);
            v(p.until);
        }
    };

    CATNAP_PHASE_WRITE double node_load(NodeId n, Cycle now, double base);

    MultiNoc *net_;
    SyntheticConfig cfg_;
    LoadSchedule schedule_;
    TraceRecorder *recorder_ = nullptr;
    std::unique_ptr<TrafficPattern> pattern_;
    std::vector<Rng> node_rng_;
    std::vector<NodePhase> node_phase_;
    PacketId next_id_ = 1;
    std::uint64_t generated_ = 0;
};

} // namespace catnap

#endif // CATNAP_TRAFFIC_SYNTHETIC_H
