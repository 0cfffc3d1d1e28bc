/**
 * @file
 * Tests for the experiment harness (sim/) and configuration plumbing:
 * labels, voltage selection, sweeps, and measurement-window behaviour.
 */
#include <gtest/gtest.h>

#include "exec/sweep_runner.h"
#include "sim/simulator.h"

namespace catnap {
namespace {

TEST(Config, LabelsMatchPaperNaming)
{
    EXPECT_EQ(single_noc_config(512).label(), "1NT-512b");
    EXPECT_EQ(single_noc_config(128).label(), "1NT-128b");
    EXPECT_EQ(single_noc_config(512, GatingKind::kIdle).label(),
              "1NT-512b-PG");
    EXPECT_EQ(multi_noc_config(4).label(), "4NT-128b");
    EXPECT_EQ(multi_noc_config(4, GatingKind::kCatnap).label(),
              "4NT-128b-PG");
    EXPECT_EQ(multi_noc_config(8).label(), "8NT-64b");
    EXPECT_EQ(multi_noc_config(2).label(), "2NT-256b");
}

TEST(Config, SingleNocDowngradesCatnapGatingToIdle)
{
    // Catnap's RCS conditions reference the next-lower subnet, which a
    // Single-NoC does not have; the factory substitutes the Matsutani
    // baseline policy exactly as Section 6.1 does.
    const MultiNocConfig cfg =
        single_noc_config(512, GatingKind::kCatnap);
    EXPECT_EQ(cfg.gating, GatingKind::kIdle);
}

TEST(Config, SubnetWidthDividesAggregate)
{
    EXPECT_EQ(multi_noc_config(4).subnet_link_bits(), 128);
    EXPECT_EQ(multi_noc_config(2).subnet_link_bits(), 256);
    EXPECT_EQ(multi_noc_config(8).subnet_link_bits(), 64);
    MultiNocConfig bad = multi_noc_config(3);
    EXPECT_THROW(MultiNoc net(bad), std::runtime_error);
}

TEST(Config, VoltageSelectionFollowsTable2)
{
    RunParams scaled;
    scaled.voltage_scaling = true;
    RunParams flat;
    flat.voltage_scaling = false;

    EXPECT_NEAR(config_vdd(single_noc_config(512), scaled), 0.750, 0.01);
    EXPECT_NEAR(config_vdd(multi_noc_config(4), scaled), 0.625, 0.01);
    EXPECT_DOUBLE_EQ(config_vdd(multi_noc_config(4), flat), 0.750);
}

TEST(Harness, SweepLoadPreservesOrderAndCount)
{
    RunParams rp;
    rp.warmup = 200;
    rp.measure = 800;
    rp.drain_max = 500;
    const std::vector<double> loads = {0.02, 0.10, 0.20};
    std::vector<RunItem> items;
    for (const double load : loads) {
        SyntheticConfig traffic;
        traffic.load = load;
        items.push_back(RunItem{multi_noc_config(2), traffic, rp});
    }
    const auto results = run_batch(items);
    ASSERT_EQ(results.size(), loads.size());
    for (std::size_t i = 0; i < loads.size(); ++i)
        EXPECT_DOUBLE_EQ(results[i].offered_load, loads[i]);
    // Accepted throughput tracks offered below saturation.
    EXPECT_NEAR(results[0].accepted_rate, 0.02, 0.01);
    EXPECT_NEAR(results[2].accepted_rate, 0.20, 0.03);
}

TEST(Harness, OfferedRateMatchesBernoulliLoad)
{
    RunParams rp;
    rp.warmup = 500;
    rp.measure = 4000;
    SyntheticConfig traffic;
    traffic.load = 0.15;
    const auto r = run_synthetic(multi_noc_config(4), traffic, rp);
    EXPECT_NEAR(r.offered_rate, 0.15, 0.01);
}

TEST(Harness, LatencyGrowsMonotonicallyWithLoad)
{
    RunParams rp;
    rp.warmup = 500;
    rp.measure = 3000;
    SyntheticConfig traffic;
    double last = 0.0;
    for (double load : {0.02, 0.15, 0.30}) {
        traffic.load = load;
        const auto r = run_synthetic(multi_noc_config(4), traffic, rp);
        EXPECT_GE(r.avg_latency, last * 0.98) << "at load " << load;
        last = r.avg_latency;
    }
}

TEST(Harness, ZeroLoadProducesNoTrafficButValidPower)
{
    RunParams rp;
    rp.warmup = 100;
    rp.measure = 1000;
    rp.drain_max = 100;
    SyntheticConfig traffic;
    traffic.load = 0.0;
    const auto r = run_synthetic(
        multi_noc_config(4, GatingKind::kCatnap), traffic, rp);
    EXPECT_EQ(r.measured_packets, 0u);
    EXPECT_DOUBLE_EQ(r.accepted_rate, 0.0);
    EXPECT_GT(r.power.total(), 0.0);
    EXPECT_GT(r.csc_percent, 60.0); // subnets 1..3 fully asleep
}

TEST(Harness, DeterministicForSameSeed)
{
    RunParams rp;
    rp.warmup = 300;
    rp.measure = 1500;
    rp.seed = 77;
    SyntheticConfig traffic;
    traffic.load = 0.12;
    const auto a = run_synthetic(multi_noc_config(4, GatingKind::kCatnap),
                                 traffic, rp);
    const auto b = run_synthetic(multi_noc_config(4, GatingKind::kCatnap),
                                 traffic, rp);
    EXPECT_DOUBLE_EQ(a.avg_latency, b.avg_latency);
    EXPECT_DOUBLE_EQ(a.power.total(), b.power.total());
    EXPECT_DOUBLE_EQ(a.csc_percent, b.csc_percent);
}

TEST(Selector, ClassPartitionMapsClassesToSubnets)
{
    ClassPartitionSelector sel(4);
    std::vector<bool> free{true, true, true, true};
    PacketDesc pkt;
    for (int c = 0; c < 4; ++c) {
        pkt.mc = static_cast<MessageClass>(c);
        EXPECT_EQ(sel.select(0, pkt, free, 0, 0), c);
    }
    // Busy slot: the class waits (static mapping, no fallback).
    free[2] = false;
    pkt.mc = MessageClass::kResponseData;
    EXPECT_EQ(sel.select(0, pkt, free, 0, 0), -1);
}

} // namespace
} // namespace catnap
