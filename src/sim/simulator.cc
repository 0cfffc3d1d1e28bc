#include "sim/simulator.h"

#include "ckpt/checkpoint.h"
#include "ckpt/schema.h"
#include "common/log.h"
#include "fault/fault.h"
#include "obs/snapshot.h"
#include "power/voltage.h"

namespace catnap {

double
config_vdd(const MultiNocConfig &cfg, const RunParams &params)
{
    if (!params.voltage_scaling)
        return VoltageModel::kVref;
    return VoltageModel::min_voltage_for(cfg.subnet_link_bits(),
                                         EnergyModel::kFrequencyGhz);
}

SyntheticRun::SyntheticRun(const MultiNocConfig &net_cfg,
                           const SyntheticConfig &traffic,
                           const RunParams &params)
    : cfg_(net_cfg), traffic_(traffic), params_(params)
{
    cfg_.seed = params_.seed;
    net_ = std::make_unique<MultiNoc>(cfg_);

    gen_ = std::make_unique<SyntheticTraffic>(
        net_.get(), traffic_, params_.seed ^ 0xabcdef12345ULL);

    net_->metrics().set_measurement_window(
        params_.warmup, params_.warmup + params_.measure);

    vdd_ = config_vdd(cfg_, params_);
    meter_ = std::make_unique<PowerMeter>(*net_, vdd_);
}

void
SyntheticRun::step()
{
    gen_->step(net_->now());
    net_->tick();
    if (snapshots_)
        snapshots_->observe(*net_, net_->now() - 1);
}

void
SyntheticRun::maybe_autosave()
{
    if (autosave_every_ == 0 || autosave_path_.empty())
        return;
    if (net_->now() % autosave_every_ == 0)
        save_checkpoint(autosave_path_);
}

void
SyntheticRun::run_warmup()
{
    while (net_->now() < params_.warmup) {
        step();
        maybe_autosave();
    }
}

SyntheticResult
SyntheticRun::finish()
{
    const Cycle m_end = params_.warmup + params_.measure;

    // Measurement. A run restored mid-measurement keeps its open
    // interval (meter baseline and offered/ejected counts) instead of
    // re-opening it, which is what makes resume bit-identical.
    if (!measuring_) {
        meter_->begin();
        offered0_ = net_->metrics().offered_packets();
        ejected0_ = net_->metrics().ejected_packets();
        measuring_ = true;
    }
    while (net_->now() < m_end) {
        step();
        maybe_autosave();
    }
    net_->finalize_accounting();
    const std::uint64_t offered1 = net_->metrics().offered_packets();
    const std::uint64_t ejected1 = net_->metrics().ejected_packets();

    SyntheticResult res;
    res.config_label = cfg_.label();
    res.offered_load = traffic_.load;
    res.vdd = vdd_;
    res.power = meter_->report();
    res.power_static = meter_->report_static();

    res.csc_percent = meter_->csc_percent();

    const double node_cycles = static_cast<double>(params_.measure) *
                               static_cast<double>(net_->num_nodes());
    res.offered_rate = static_cast<double>(offered1 - offered0_) /
                       node_cycles;
    res.accepted_rate = static_cast<double>(ejected1 - ejected0_) /
                        node_cycles;

    // Drain: stop generating and let in-flight window packets finish so
    // latency statistics cover whole packets.
    const Cycle drain_end = net_->now() + params_.drain_max;
    while (net_->now() < drain_end && !net_->quiescent()) {
        net_->tick();
        if (snapshots_)
            snapshots_->observe(*net_, net_->now() - 1);
    }
    res.drained = net_->quiescent();
    if (!res.drained) {
        const std::uint64_t done = net_->metrics().ejected_packets() +
                                   net_->metrics().dropped_packets();
        const std::uint64_t offered = net_->metrics().offered_packets();
        CATNAP_WARN("drain budget of ", params_.drain_max,
                    " cycles exhausted with ",
                    offered > done ? offered - done : 0,
                    " packets still in flight (config ", cfg_.label(),
                    ", load ", traffic_.load,
                    "); latency tail is truncated");
    }
    res.retransmits = net_->metrics().retransmits();
    res.dropped_packets = net_->metrics().dropped_packets();
    if (const FaultController *fault = net_->fault()) {
        res.faults_fired = fault->faults_fired();
        res.subnet_failures = fault->subnet_failures();
    }

    res.avg_latency = net_->metrics().total_latency().mean();
    res.avg_net_latency = net_->metrics().network_latency().mean();
    res.p50_latency = net_->metrics().latency_histogram().quantile(0.50);
    res.p99_latency = net_->metrics().latency_histogram().quantile(0.99);
    res.measured_packets = net_->metrics().total_latency().count();
    return res;
}

CATNAP_PHASE_READ void
SyntheticRun::serialize_run(ckpt::Writer &w) const
{
    net_->Serialize(w);
    gen_->Serialize(w);
    w.put_bool(measuring_);
    w.put_u64(offered0_);
    w.put_u64(ejected0_);
    meter_->Serialize(w);
}

CATNAP_PHASE_WRITE void
SyntheticRun::deserialize_run(ckpt::Reader &r)
{
    net_->Deserialize(r);
    gen_->Deserialize(r);
    measuring_ = r.take_bool();
    offered0_ = r.take_u64();
    ejected0_ = r.take_u64();
    meter_->Deserialize(r);
}

std::uint64_t
SyntheticRun::run_hash() const
{
    // Domain tag "RUN1": run-level checkpoints embed harness state on
    // top of the network payload, so they must never open as (or be
    // opened by) bare-network checkpoints.
    return ckpt::run_identity(0x4e555231u, cfg_, traffic_, params_);
}

void
SyntheticRun::save_checkpoint(const std::string &path) const
{
    ckpt::Writer w;
    serialize_run(w);
    ckpt::write_file(path, ckpt::seal(run_hash(), w.bytes()));
}

std::unique_ptr<SyntheticRun>
SyntheticRun::restore_checkpoint(const MultiNocConfig &net_cfg,
                                 const SyntheticConfig &traffic,
                                 const RunParams &params,
                                 const std::string &path)
{
    auto run = std::make_unique<SyntheticRun>(net_cfg, traffic, params);
    const std::vector<std::uint8_t> payload =
        ckpt::open(run->run_hash(), ckpt::read_file(path));
    ckpt::Reader r(payload);
    run->deserialize_run(r);
    r.expect_exhausted();
    return run;
}

SyntheticResult
run_synthetic(const MultiNocConfig &net_cfg, const SyntheticConfig &traffic,
              const RunParams &params)
{
    SyntheticRun run(net_cfg, traffic, params);
    run.run_warmup();
    return run.finish();
}

} // namespace catnap
