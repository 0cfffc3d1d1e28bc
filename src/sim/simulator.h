/**
 * @file
 * Experiment harness: runs a MultiNoc under synthetic traffic with
 * warm-up / measurement / drain phases and returns the metrics the
 * paper's figures report (latency, throughput, CSC, power).
 */
#ifndef CATNAP_SIM_SIMULATOR_H
#define CATNAP_SIM_SIMULATOR_H

#include <memory>
#include <string>

#include "ckpt/fwd.h"
#include "noc/multinoc.h"
#include "power/power_meter.h"
#include "traffic/synthetic.h"

namespace catnap {

class SnapshotRecorder;

/** Phase lengths for a synthetic run. */
struct RunParams
{
    Cycle warmup = 2000;
    Cycle measure = 10000;
    /** Max drain cycles after measurement (latency-tail collection). */
    Cycle drain_max = 20000;

    /**
     * If true (the paper's configuration), routers run at the lowest
     * voltage that meets 2 GHz for their width (Table 2); otherwise all
     * designs use the 0.750 V reference voltage.
     */
    bool voltage_scaling = true;

    std::uint64_t seed = 12345;
};

/** Results of one synthetic run. */
struct SyntheticResult
{
    std::string config_label;
    double offered_load = 0.0;   ///< requested packets/node/cycle
    double offered_rate = 0.0;   ///< measured generation rate
    double accepted_rate = 0.0;  ///< measured ejection rate (throughput)
    double avg_latency = 0.0;    ///< creation -> tail ejection, cycles
    double avg_net_latency = 0.0;///< injection -> tail ejection, cycles
    double p50_latency = 0.0;    ///< median latency, cycles
    double p99_latency = 0.0;    ///< 99th-percentile latency, cycles
    double csc_percent = 0.0;    ///< compensated sleep cycles, % of time
    double vdd = 0.0;            ///< supply voltage used
    PowerBreakdown power;        ///< network power over the window, watts
    PowerBreakdown power_static; ///< static-only portion
    std::uint64_t measured_packets = 0;

    /**
     * False when the post-measurement drain phase exhausted drain_max
     * cycles with packets still in flight: the latency statistics above
     * then under-count the slowest packets. Reported (with the in-flight
     * count) on stderr and as a CSV column.
     */
    bool drained = true;
    std::uint64_t retransmits = 0;     ///< fault model: packets re-sent
    std::uint64_t dropped_packets = 0; ///< fault model: packets given up
    std::uint64_t faults_fired = 0;    ///< scheduled+probabilistic faults
    std::uint64_t subnet_failures = 0; ///< subnets lost to hard faults
};

/** Supply voltage a config runs at under @p params' scaling rule. */
double config_vdd(const MultiNocConfig &cfg, const RunParams &params);

/**
 * One synthetic experiment as a resumable object: the phases of
 * run_synthetic() split apart so a run can be checkpointed to disk
 * mid-flight and restored (DESIGN.md §13).
 *
 * The canonical sequence — construct, run_warmup(), finish() — executes
 * exactly the statements run_synthetic() always ran, in the same order,
 * so results are bit-identical to the historical monolithic path.
 */
class SyntheticRun
{
  public:
    SyntheticRun(const MultiNocConfig &net_cfg,
                 const SyntheticConfig &traffic, const RunParams &params);

    /** Advances to the end of the warm-up phase (no-op once past it). */
    void run_warmup();

    /**
     * Runs measurement and drain, then assembles the result. On a run
     * restored mid-measurement, continues the open measurement interval
     * instead of restarting it.
     */
    SyntheticResult finish();

    /**
     * Saves the complete mid-run state (network, traffic generator,
     * measurement bookkeeping) as a sealed checkpoint file. The config
     * hash covers the network config plus traffic and phase parameters,
     * so a run checkpoint only restores into the identical experiment.
     */
    void save_checkpoint(const std::string &path) const;

    /**
     * Resumes a run saved by save_checkpoint(). @p net_cfg, @p traffic,
     * and @p params must equal the saving run's (hash-enforced).
     * Finishing the restored run reproduces the uninterrupted run's
     * result exactly.
     */
    static std::unique_ptr<SyntheticRun>
    restore_checkpoint(const MultiNocConfig &net_cfg,
                       const SyntheticConfig &traffic,
                       const RunParams &params, const std::string &path);

    /** Overwrites @p path every @p every cycles during warm-up and
     * measurement (0 disables). Saving never perturbs the run. */
    void
    set_autosave(std::string path, Cycle every)
    {
        autosave_path_ = std::move(path);
        autosave_every_ = every;
    }

    /** Records the run's trace events into @p sink (not owned; null =
     * none). Set before run_warmup() to cover the whole run. */
    void set_event_sink(EventSink *sink) { net_->set_event_sink(sink); }

    /** Has @p snapshots observe every simulated cycle, drain included
     * (not owned; null = none). Set before run_warmup(). */
    void set_snapshots(SnapshotRecorder *snapshots) { snapshots_ = snapshots; }

    MultiNoc &net() { return *net_; }
    const MultiNoc &net() const { return *net_; }
    Cycle now() const { return net_->now(); }

  private:
    /** Appends the run payload (network, generator, harness section). */
    CATNAP_PHASE_READ void serialize_run(ckpt::Writer &w) const;

    /** Restores what serialize_run() wrote into an identically
     * constructed run. */
    CATNAP_PHASE_WRITE void deserialize_run(ckpt::Reader &r);

    /** Config hash of run-level checkpoints: the network config hash
     * extended with a domain tag, the traffic config, and the phase
     * parameters (warm-up length included, per DESIGN.md §13). */
    std::uint64_t run_hash() const;

    void step();
    void maybe_autosave();

    MultiNocConfig cfg_;
    SyntheticConfig traffic_;
    RunParams params_;
    double vdd_ = 0.0;
    std::unique_ptr<MultiNoc> net_;
    std::unique_ptr<SyntheticTraffic> gen_;
    std::unique_ptr<PowerMeter> meter_;
    /** True once the measurement interval is open (meter begun and the
     * offered/ejected baselines captured). */
    bool measuring_ = false;
    std::uint64_t offered0_ = 0;
    std::uint64_t ejected0_ = 0;
    std::string autosave_path_;
    Cycle autosave_every_ = 0;
    SnapshotRecorder *snapshots_ = nullptr;
};

/**
 * Runs @p net_cfg under @p traffic for the phases in @p params.
 * Deterministic for fixed seeds.
 */
SyntheticResult run_synthetic(const MultiNocConfig &net_cfg,
                              const SyntheticConfig &traffic,
                              const RunParams &params);

} // namespace catnap

#endif // CATNAP_SIM_SIMULATOR_H
