/**
 * @file
 * Tests for fine-grained per-port power gating (Matsutani [20],
 * GatingKind::kFinePort).
 */
#include <gtest/gtest.h>

#include "noc/multinoc.h"
#include "power/power_meter.h"
#include "test_util.h"
#include "traffic/synthetic.h"

namespace catnap {
namespace {

TEST(FinePort, IdleNetworkGatesEveryPort)
{
    MultiNoc net(single_noc_config(512, GatingKind::kFinePort));
    net.run(12);
    for (NodeId n = 0; n < net.num_nodes(); ++n) {
        const Router &r = net.router(0, n);
        // The router-level FSM stays Active; the ports sleep.
        EXPECT_EQ(r.power_state(), PowerState::kActive);
        for (int p = 0; p < kNumPorts; ++p) {
            EXPECT_EQ(r.power_state(direction_from_index(p)),
                      PowerState::kSleep)
                << "node " << n << " port " << p;
        }
    }
    EXPECT_GT(net.total_activity().port_sleep_cycles, 0u);
    EXPECT_EQ(net.total_activity().sleep_cycles, 0u);
}

TEST(FinePort, LabelUsesPpgSuffix)
{
    EXPECT_EQ(single_noc_config(512, GatingKind::kFinePort).label(),
              "1NT-512b-PPG");
}

TEST(FinePort, TrafficDeliversThroughGatedPorts)
{
    MultiNoc net(single_noc_config(512, GatingKind::kFinePort));
    net.run(20); // everything asleep
    SyntheticConfig traffic;
    traffic.load = 0.05;
    SyntheticTraffic gen(&net, traffic, 9);
    for (Cycle c = 0; c < 2500; ++c) {
        gen.step(net.now());
        net.tick();
    }
    ASSERT_TRUE(test::drain_until_quiescent(net, 60000));
    EXPECT_EQ(net.metrics().offered_packets(),
              net.metrics().ejected_packets());
}

TEST(FinePort, OnlyTraversedPortsWake)
{
    MultiNoc net(single_noc_config(512, GatingKind::kFinePort));
    net.run(20);
    // One packet 0 -> 2 travels east along the top row. Router 1's West
    // input port must wake; its North/South ports stay asleep.
    PacketDesc pkt;
    pkt.id = 1;
    pkt.src = 0;
    pkt.dst = 2;
    pkt.size_bits = 512;
    pkt.created = net.now();
    bool delivered = false;
    net.ni(2).set_packet_sink(
        [&](const Flit &, Cycle) { delivered = true; });
    net.offer_packet(pkt);
    bool west_woke = false;
    bool south_stayed_asleep = true;
    const Router &r1 = net.router(0, 1);
    for (int i = 0; i < 60; ++i) {
        net.tick();
        west_woke |=
            r1.power_state(Direction::kWest) != PowerState::kSleep;
        south_stayed_asleep &=
            r1.power_state(Direction::kSouth) == PowerState::kSleep;
    }
    EXPECT_TRUE(delivered);
    // The traversed input port woke (delivery requires it); the
    // untraversed one never did. Ejection leaves through the local
    // *output* port, which has no buffers and never gates, so the local
    // *input* port of the destination stays asleep too.
    EXPECT_TRUE(west_woke);
    EXPECT_TRUE(south_stayed_asleep);
    EXPECT_EQ(net.router(0, 2).power_state(Direction::kLocal),
              PowerState::kSleep);
}

TEST(FinePort, SavesLessThanCatnapMoreThanRouterIdle)
{
    // The Section 7.1 comparison: fine-grained gating beats whole-router
    // idle gating on a Single-NoC, but cannot approach whole-subnet
    // gating because crossbar/clock/control never gate.
    auto power_at = [](MultiNocConfig cfg) {
        MultiNoc net(cfg);
        SyntheticConfig traffic;
        traffic.load = 0.02;
        SyntheticTraffic gen(&net, traffic, 5);
        PowerMeter meter(net, 0.75);
        for (Cycle c = 0; c < 1000; ++c) {
            gen.step(net.now());
            net.tick();
        }
        meter.begin();
        for (Cycle c = 0; c < 4000; ++c) {
            gen.step(net.now());
            net.tick();
        }
        net.finalize_accounting();
        return meter.report().total();
    };
    const double idle = power_at(single_noc_config(512, GatingKind::kIdle));
    const double fine =
        power_at(single_noc_config(512, GatingKind::kFinePort));
    const double catnap =
        power_at(multi_noc_config(4, GatingKind::kCatnap));
    EXPECT_LT(fine, idle);
    EXPECT_LT(catnap, fine * 0.8);
}

TEST(FinePort, PortCscAccountingInRange)
{
    MultiNoc net(single_noc_config(512, GatingKind::kFinePort));
    PowerMeter meter(net, 0.75);
    net.run(50);
    meter.begin();
    net.run(4000);
    net.finalize_accounting();
    // Fully idle: all five ports of all routers sleep the whole window;
    // in router-cycle equivalents that is ~100 % CSC.
    EXPECT_GT(meter.csc_percent(), 95.0);
    EXPECT_LE(meter.csc_percent(), 100.5);
}

TEST(FinePort, DeterministicAcrossRuns)
{
    auto run = [] {
        MultiNoc net(single_noc_config(512, GatingKind::kFinePort));
        SyntheticConfig traffic;
        traffic.load = 0.08;
        SyntheticTraffic gen(&net, traffic, 33);
        for (Cycle c = 0; c < 2000; ++c) {
            gen.step(net.now());
            net.tick();
        }
        const auto a = net.total_activity();
        return std::tuple(net.metrics().ejected_packets(),
                          a.port_sleep_transitions, a.port_sleep_cycles,
                          a.port_compensated_sleep_cycles);
    };
    EXPECT_EQ(run(), run());
}

} // namespace
} // namespace catnap
