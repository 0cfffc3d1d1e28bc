/**
 * @file
 * Network-level metric collection shared by the NIs of a Multi-NoC:
 * offered/accepted throughput, packet latency, and the time-series
 * samplers used by the bursty-traffic experiment (Figure 12).
 */
#ifndef CATNAP_NOC_METRICS_H
#define CATNAP_NOC_METRICS_H

#include <cstdint>
#include <vector>

#include "ckpt/fields.h"
#include "common/stats.h"
#include "common/types.h"
#include "common/phase.h"

namespace catnap {

/**
 * Aggregated network metrics. Latency samples are restricted to packets
 * created inside [measure_begin, measure_end) so warm-up and drain do not
 * pollute steady-state numbers.
 */
class NetMetrics
{
  public:
    /** Creates metrics for @p num_subnets with @p window-cycle series. */
    explicit NetMetrics(int num_subnets, std::uint64_t window = 50)
        : injected_flits_per_subnet_(static_cast<std::size_t>(num_subnets), 0),
          offered_series_(window), accepted_series_(window)
    {
        subnet_series_.reserve(static_cast<std::size_t>(num_subnets));
        for (int s = 0; s < num_subnets; ++s)
            subnet_series_.emplace_back(window);
    }

    /** Sets the measurement window for latency/throughput sampling. */
    void
    set_measurement_window(Cycle begin, Cycle end)
    {
        measure_begin_ = begin;
        measure_end_ = end;
    }

    /** Enables the per-window time series (off by default; Figure 12). */
    void set_series_enabled(bool on) { series_enabled_ = on; }

    bool
    in_window(Cycle created) const
    {
        return created >= measure_begin_ && created < measure_end_;
    }

    /** A packet was created at a source NI. */
    CATNAP_SHARD_SAFE CATNAP_PHASE_READ void
    note_offered(const Cycle created, int flits)
    {
        ++offered_packets_;
        offered_flits_ += static_cast<std::uint64_t>(flits);
        if (in_window(created)) {
            ++offered_packets_window_;
            offered_flits_window_ += static_cast<std::uint64_t>(flits);
        }
        if (series_enabled_)
            offered_series_.add(created, 1.0);
    }

    /** A flit entered subnet @p s at a source NI at cycle @p now. */
    CATNAP_SHARD_SAFE CATNAP_PHASE_READ void
    note_injected_flit(SubnetId s, Cycle now)
    {
        ++injected_flits_;
        ++injected_flits_per_subnet_[static_cast<std::size_t>(s)];
        if (series_enabled_)
            subnet_series_[static_cast<std::size_t>(s)].add(now, 1.0);
    }

    /**
     * A flit left subnet @p s at its destination NI (network path only;
     * loopback flits never touch this counter). Pairs with
     * note_injected_flit() for the flit-conservation invariant.
     */
    CATNAP_SHARD_SAFE CATNAP_PHASE_READ void
    note_ejected_flit(SubnetId s)
    {
        (void)s;
        ++ejected_network_flits_;
    }

    /** A whole packet finished ejecting at its destination NI. */
    CATNAP_SHARD_SAFE CATNAP_PHASE_READ void
    note_ejected_packet(Cycle created, Cycle injected,
                        Cycle now, int flits,
                        int hops)
    {
        ++ejected_packets_;
        ejected_flits_ += static_cast<std::uint64_t>(flits);
        if (series_enabled_)
            accepted_series_.add(now, 1.0);
        if (!in_window(created))
            return;
        ++ejected_packets_window_;
        ejected_flits_window_ += static_cast<std::uint64_t>(flits);
        total_latency_.add(static_cast<double>(now - created));
        latency_hist_.add(static_cast<double>(now - created));
        network_latency_.add(static_cast<double>(now - injected));
        hop_count_.add(static_cast<double>(hops));
    }

    // Fault path (src/fault) ----------------------------------------------

    /** A source NI re-offered a packet whose flits were purged. */
    CATNAP_SHARD_SAFE CATNAP_PHASE_READ void note_retransmit() { ++retransmits_; }

    /** A packet was abandoned after exhausting its retransmissions. */
    CATNAP_SHARD_SAFE CATNAP_PHASE_READ void note_dropped_packet() { ++dropped_packets_; }

    /** @p n in-network flits were purged by a hard fault. Balances the
     * flit-conservation identity: injected == in_flight + ejected +
     * dropped. */
    CATNAP_SHARD_SAFE CATNAP_PHASE_READ void note_dropped_flits(std::size_t n)
    {
        dropped_flits_ += static_cast<std::uint64_t>(n);
    }

    std::uint64_t retransmits() const { return retransmits_; }
    std::uint64_t dropped_packets() const { return dropped_packets_; }
    std::uint64_t dropped_flits() const { return dropped_flits_; }

    /** Advances the time-series clocks (call once per cycle if enabled). */
    void
    roll_series(Cycle now)
    {
        if (!series_enabled_)
            return;
        offered_series_.roll_to(now);
        accepted_series_.roll_to(now);
        for (auto &s : subnet_series_)
            s.roll_to(now);
    }

    // Cumulative counters ------------------------------------------------
    std::uint64_t offered_packets() const { return offered_packets_; }
    std::uint64_t offered_flits() const { return offered_flits_; }
    std::uint64_t injected_flits() const { return injected_flits_; }
    std::uint64_t ejected_packets() const { return ejected_packets_; }
    std::uint64_t ejected_flits() const { return ejected_flits_; }

    /** Flits that left the network at destination NIs (no loopbacks). */
    std::uint64_t ejected_network_flits() const
    {
        return ejected_network_flits_;
    }

    /** Flits injected into subnet @p s since construction. */
    std::uint64_t
    injected_flits_in_subnet(SubnetId s) const
    {
        return injected_flits_per_subnet_[static_cast<std::size_t>(s)];
    }

    /** Latency from packet creation to tail ejection (includes queuing). */
    const RunningStat &total_latency() const { return total_latency_; }

    /** Histogram of total latency (2-cycle buckets; quantile queries). */
    const Histogram &latency_histogram() const { return latency_hist_; }

    /** Latency from head injection to tail ejection. */
    const RunningStat &network_latency() const { return network_latency_; }

    /** Hop distance of delivered packets. */
    const RunningStat &hop_count() const { return hop_count_; }

    // Time series (Figure 12) ---------------------------------------------
    const WindowedSeries &offered_series() const { return offered_series_; }
    const WindowedSeries &accepted_series() const { return accepted_series_; }
    const WindowedSeries &
    subnet_series(SubnetId s) const
    {
        return subnet_series_[static_cast<std::size_t>(s)];
    }

    /** Appends the full metric state to a checkpoint (DESIGN.md §13). */
    CATNAP_COLD_PATH CATNAP_PHASE_READ void
    Serialize(ckpt::Writer &w) const
    {
        w.put_u64(measure_begin_);
        w.put_u64(measure_end_);
        w.put_bool(series_enabled_);
        w.put_u64(offered_packets_);
        w.put_u64(offered_flits_);
        w.put_u64(injected_flits_);
        w.put_u64(ejected_packets_);
        w.put_u64(ejected_flits_);
        w.put_u64(ejected_network_flits_);
        w.put_u64(offered_packets_window_);
        w.put_u64(offered_flits_window_);
        w.put_u64(ejected_packets_window_);
        w.put_u64(ejected_flits_window_);
        w.put_u64(retransmits_);
        w.put_u64(dropped_packets_);
        w.put_u64(dropped_flits_);
        ckpt::put(w, injected_flits_per_subnet_);
        total_latency_.Serialize(w);
        network_latency_.Serialize(w);
        hop_count_.Serialize(w);
        latency_hist_.Serialize(w);
        offered_series_.Serialize(w);
        accepted_series_.Serialize(w);
        w.put_u64(subnet_series_.size());
        for (const WindowedSeries &s : subnet_series_)
            s.Serialize(w);
    }

    /** Restores the full metric state from a checkpoint. */
    CATNAP_COLD_PATH CATNAP_PHASE_WRITE void
    Deserialize(ckpt::Reader &r)
    {
        measure_begin_ = r.take_u64();
        measure_end_ = r.take_u64();
        series_enabled_ = r.take_bool();
        offered_packets_ = r.take_u64();
        offered_flits_ = r.take_u64();
        injected_flits_ = r.take_u64();
        ejected_packets_ = r.take_u64();
        ejected_flits_ = r.take_u64();
        ejected_network_flits_ = r.take_u64();
        offered_packets_window_ = r.take_u64();
        offered_flits_window_ = r.take_u64();
        ejected_packets_window_ = r.take_u64();
        ejected_flits_window_ = r.take_u64();
        retransmits_ = r.take_u64();
        dropped_packets_ = r.take_u64();
        dropped_flits_ = r.take_u64();
        injected_flits_per_subnet_ = ckpt::take_exact(
            r, injected_flits_per_subnet_, "per-subnet flit counter");
        total_latency_.Deserialize(r);
        network_latency_.Deserialize(r);
        hop_count_.Deserialize(r);
        latency_hist_.Deserialize(r);
        offered_series_.Deserialize(r);
        accepted_series_.Deserialize(r);
        ckpt::take_exact(r, subnet_series_.size(), "subnet series");
        for (WindowedSeries &s : subnet_series_)
            s.Deserialize(r);
    }

  private:
    Cycle measure_begin_ = 0;
    Cycle measure_end_ = kNoCycle;
    bool series_enabled_ = false;

    std::uint64_t offered_packets_ = 0;
    std::uint64_t offered_flits_ = 0;
    std::uint64_t injected_flits_ = 0;
    std::uint64_t ejected_packets_ = 0;
    std::uint64_t ejected_flits_ = 0;
    std::uint64_t ejected_network_flits_ = 0;
    std::uint64_t offered_packets_window_ = 0;
    std::uint64_t offered_flits_window_ = 0;
    std::uint64_t ejected_packets_window_ = 0;
    std::uint64_t ejected_flits_window_ = 0;
    std::uint64_t retransmits_ = 0;
    std::uint64_t dropped_packets_ = 0;
    std::uint64_t dropped_flits_ = 0;
    std::vector<std::uint64_t> injected_flits_per_subnet_;

    RunningStat total_latency_;
    RunningStat network_latency_;
    RunningStat hop_count_;
    Histogram latency_hist_{2.0, 1000};

    WindowedSeries offered_series_;
    WindowedSeries accepted_series_;
    std::vector<WindowedSeries> subnet_series_;
};

} // namespace catnap

#endif // CATNAP_NOC_METRICS_H
