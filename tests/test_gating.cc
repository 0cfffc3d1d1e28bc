/**
 * @file
 * Tests for the power-gating machinery: the router power FSM, wake-up
 * timing, CSC accounting, and the IdleGate / CatnapGate policies.
 */
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "noc/multinoc.h"
#include "test_util.h"
#include "traffic/synthetic.h"

namespace catnap {
namespace {

int
count_state(const MultiNoc &net, SubnetId s, PowerState ps)
{
    int count = 0;
    for (NodeId n = 0; n < net.num_nodes(); ++n)
        count += (net.router(s, n).power_state() == ps);
    return count;
}

TEST(Gating, AlwaysOnNeverSleeps)
{
    MultiNoc net(multi_noc_config(4, GatingKind::kAlwaysOn));
    net.run(100);
    for (SubnetId s = 0; s < 4; ++s)
        EXPECT_EQ(count_state(net, s, PowerState::kActive), 64);
    EXPECT_EQ(net.total_activity().sleep_cycles, 0u);
}

TEST(Gating, IdleNetworkGatesAfterIdleDetect)
{
    MultiNoc net(single_noc_config(512, GatingKind::kIdle));
    // t_idle_detect is 4 cycles; by cycle ~6 every router must sleep.
    net.run(10);
    EXPECT_EQ(count_state(net, 0, PowerState::kSleep), 64);
    EXPECT_GT(net.total_activity().sleep_cycles, 0u);
}

TEST(Gating, CatnapKeepsSubnetZeroActive)
{
    MultiNoc net(multi_noc_config(4, GatingKind::kCatnap));
    net.run(200);
    EXPECT_EQ(count_state(net, 0, PowerState::kActive), 64);
    for (SubnetId s = 1; s < 4; ++s)
        EXPECT_EQ(count_state(net, s, PowerState::kSleep), 64);
}

TEST(Gating, SleepingRouterWakesForTraffic)
{
    MultiNoc net(single_noc_config(512, GatingKind::kIdle));
    net.run(20); // everything asleep
    ASSERT_EQ(count_state(net, 0, PowerState::kSleep), 64);

    Cycle done = kNoCycle;
    net.ni(7).set_packet_sink(
        [&](const Flit &, Cycle now) { done = now; });
    PacketDesc pkt;
    pkt.id = 1;
    pkt.src = 0;
    pkt.dst = 7;
    pkt.size_bits = 512;
    pkt.created = net.now();
    net.offer_packet(pkt);
    const Cycle start = net.now();
    while (done == kNoCycle && net.now() < start + 2000)
        net.tick();
    ASSERT_NE(done, kNoCycle);
    // Ungated latency is 3H+3 = 24; each of the 8 routers on the path
    // adds at most T_wakeup (10) but look-ahead hides 3 cycles.
    const Cycle latency = done - start;
    EXPECT_GT(latency, 24u);
    EXPECT_LE(latency, 24u + 8u * 10u);
}

TEST(Gating, WakeupTakesConfiguredCycles)
{
    MultiNocConfig cfg = single_noc_config(512, GatingKind::kIdle);
    MultiNoc a(cfg);
    cfg.t_wakeup = 30;
    MultiNoc b(cfg);

    auto deliver = [](MultiNoc &net) {
        net.run(20);
        Cycle done = kNoCycle;
        net.ni(7).set_packet_sink(
            [&](const Flit &, Cycle now) { done = now; });
        PacketDesc pkt;
        pkt.id = 1;
        pkt.src = 0;
        pkt.dst = 7;
        pkt.size_bits = 512;
        pkt.created = net.now();
        net.offer_packet(pkt);
        const Cycle start = net.now();
        while (done == kNoCycle && net.now() < start + 5000)
            net.tick();
        return done - start;
    };
    const Cycle fast = deliver(a);
    const Cycle slow = deliver(b);
    EXPECT_GT(slow, fast);
}

TEST(Gating, CscAccountsBreakEven)
{
    // One router sleeping for N cycles then woken earns N - 12 CSC.
    MultiNocConfig cfg = single_noc_config(512, GatingKind::kIdle);
    MultiNoc net(cfg);
    net.run(500);
    net.finalize_accounting();
    const ActivityCounters a = net.total_activity();
    // All 64 routers slept once, from ~cycle 5 to 500.
    EXPECT_EQ(a.sleep_transitions, 64u);
    const double per_router_csc =
        static_cast<double>(a.compensated_sleep_cycles) / 64.0;
    EXPECT_NEAR(per_router_csc, 500.0 - 5.0 - 12.0, 4.0);
}

TEST(Gating, ThrashingYieldsNegativeCsc)
{
    // Force pathological thrash: a router that sleeps for fewer than
    // t_breakeven cycles accrues negative compensated sleep cycles.
    MultiNocConfig cfg = single_noc_config(512, GatingKind::kIdle);
    cfg.t_idle_detect = 2;
    MultiNoc net(cfg);
    // Single-flit packets injected sparsely on one route keep waking the
    // same routers just after they fall asleep.
    PacketId id = 1;
    for (Cycle c = 0; c < 3000; ++c) {
        if (c % 18 == 0) {
            PacketDesc pkt;
            pkt.id = id++;
            pkt.src = 0;
            pkt.dst = 1;
            pkt.size_bits = 512;
            pkt.created = net.now();
            net.offer_packet(pkt);
        }
        net.tick();
    }
    net.finalize_accounting();
    const ActivityCounters r0 = net.router(0, 0).activity(net.now());
    const ActivityCounters r1 = net.router(0, 1).activity(net.now());
    EXPECT_GT(r0.sleep_transitions + r1.sleep_transitions, 40u);
    // Each sleep period on the thrashed route lasts well under 18 cycles
    // once idle-detect and wake-up are subtracted, so after the 12-cycle
    // break-even charge the two routers earn almost nothing compared to
    // routers that sleep through the whole run.
    MultiNoc idle(cfg);
    idle.run(3000);
    idle.finalize_accounting();
    const double idle_per_router =
        static_cast<double>(
            idle.router(0, 0).activity(idle.now()).compensated_sleep_cycles);
    const double thrashed =
        static_cast<double>(r0.compensated_sleep_cycles +
                            r1.compensated_sleep_cycles) / 2.0;
    EXPECT_LT(thrashed, 0.25 * idle_per_router);
}

TEST(Gating, CatnapWakesHigherSubnetOnCongestion)
{
    // Saturating load must force higher-order subnets awake.
    MultiNoc net(multi_noc_config(4, GatingKind::kCatnap));
    net.run(100); // subnets 1..3 asleep
    ASSERT_EQ(count_state(net, 3, PowerState::kSleep), 64);

    SyntheticConfig traffic;
    traffic.load = 0.4;
    SyntheticTraffic gen(&net, traffic, 17);
    for (Cycle c = 0; c < 2000; ++c) {
        gen.step(net.now());
        net.tick();
    }
    // At 0.4 packets/node/cycle all subnets are needed.
    EXPECT_GT(count_state(net, 1, PowerState::kActive), 32);
    EXPECT_GT(count_state(net, 3, PowerState::kActive), 16);
}

TEST(Gating, CatnapReturnsToSleepAfterBurst)
{
    MultiNoc net(multi_noc_config(4, GatingKind::kCatnap));
    SyntheticConfig traffic;
    traffic.load = 0.4;
    SyntheticTraffic gen(&net, traffic, 29);
    for (Cycle c = 0; c < 1500; ++c) {
        gen.step(net.now());
        net.tick();
    }
    // Stop traffic; after drain + idle detect the higher subnets sleep.
    test::drain_until_quiescent(net, 30000);
    net.run(200);
    for (SubnetId s = 1; s < 4; ++s) {
        EXPECT_EQ(count_state(net, s, PowerState::kSleep), 64)
            << "subnet " << s;
    }
    EXPECT_EQ(count_state(net, 0, PowerState::kActive), 64);
}

TEST(Gating, LowLoadSleepsMostHigherOrderRouters)
{
    // The headline behaviour (Figure 4): at low load only subnet 0 works.
    MultiNoc net(multi_noc_config(4, GatingKind::kCatnap));
    SyntheticConfig traffic;
    traffic.load = 0.02;
    SyntheticTraffic gen(&net, traffic, 31);
    std::uint64_t asleep_samples = 0, samples = 0;
    for (Cycle c = 0; c < 5000; ++c) {
        gen.step(net.now());
        net.tick();
        if (c >= 1000) {
            for (SubnetId s = 1; s < 4; ++s)
                asleep_samples += static_cast<std::uint64_t>(
                    count_state(net, s, PowerState::kSleep));
            samples += 3 * 64;
        }
    }
    EXPECT_GT(static_cast<double>(asleep_samples) /
                  static_cast<double>(samples),
              0.95);
    // And the packets still flow.
    EXPECT_GT(net.metrics().ejected_packets(), 5000u);
}

TEST(Gating, ExpectedPacketBlocksSleep)
{
    MultiNocConfig cfg = single_noc_config(512, GatingKind::kIdle);
    MultiNoc net(cfg);
    net.run(20);
    // Wake path: announce a packet at router 1 without delivering it.
    net.router(0, 1).note_expected_packet(Direction::kLocal);
    net.router(0, 1).request_wakeup(Direction::kLocal);
    net.run(30);
    EXPECT_EQ(net.router(0, 1).power_state(), PowerState::kActive);
    net.run(100);
    // Still active: the announced packet never arrived.
    EXPECT_EQ(net.router(0, 1).power_state(), PowerState::kActive);
}

TEST(Gating, ResidencyMatchesPerCycleObservation)
{
    // Residency is derived from sleep-period timestamps; it must equal a
    // tally of the power states observed after every tick, including
    // cycles with a transition and a router's death.
    struct Case
    {
        std::string name;
        MultiNocConfig cfg;
        double load;
    };
    std::vector<Case> cases;
    for (const GatingKind kind :
         {GatingKind::kAlwaysOn, GatingKind::kIdle, GatingKind::kCatnap})
        for (const double load : {0.05, 0.25})
            cases.push_back(
                {gating_kind_name(kind), multi_noc_config(4, kind), load});
    MultiNocConfig killed = multi_noc_config(4, GatingKind::kCatnap);
    killed.fault.kill_router(1500, 2, 9);
    cases.push_back({"CatnapGate with a kill", killed, 0.05});
    cases.push_back(
        {"FinePortGate", single_noc_config(512, GatingKind::kFinePort), 0.05});

    for (const Case &c : cases) {
        SCOPED_TRACE(c.name + " at load " + std::to_string(c.load));
        MultiNoc net(c.cfg);
        SyntheticConfig traffic;
        traffic.load = c.load;
        SyntheticTraffic gen(&net, traffic, 29);
        const bool port_gating = net.subnet_params().port_gating;
        const auto routers = static_cast<std::size_t>(net.num_subnets()) *
                             static_cast<std::size_t>(net.num_nodes());
        std::vector<std::uint64_t> asleep(routers, 0);
        std::vector<std::uint64_t> ports_asleep(routers, 0);
        for (Cycle t = 0; t < 3000; ++t) {
            gen.step(net.now());
            net.tick();
            std::size_t i = 0;
            for (SubnetId s = 0; s < net.num_subnets(); ++s) {
                for (NodeId n = 0; n < net.num_nodes(); ++n, ++i) {
                    const Router &r = net.router(s, n);
                    asleep[i] += r.failed() ||
                                 r.power_state() == PowerState::kSleep;
                    for (int p = 0; port_gating && p < kNumPorts; ++p)
                        ports_asleep[i] +=
                            r.power_state(direction_from_index(p)) ==
                            PowerState::kSleep;
                }
            }
        }
        if (!c.cfg.fault.empty()) {
            EXPECT_TRUE(net.router(2, 9).failed());
        }

        const Cycle now = net.now();
        std::size_t i = 0;
        for (SubnetId s = 0; s < net.num_subnets(); ++s) {
            for (NodeId n = 0; n < net.num_nodes(); ++n, ++i) {
                const ActivityCounters a = net.router(s, n).activity(now);
                EXPECT_EQ(a.sleep_cycles, asleep[i]) << "subnet " << s
                                                     << " node " << n;
                EXPECT_EQ(a.active_cycles, now - asleep[i])
                    << "subnet " << s << " node " << n;
                EXPECT_EQ(a.port_sleep_cycles, ports_asleep[i])
                    << "subnet " << s << " node " << n;
            }
        }
    }
}

TEST(Gating, SleepFractionTracksLoad)
{
    auto sleep_frac = [](double load) {
        MultiNoc net(multi_noc_config(4, GatingKind::kCatnap));
        SyntheticConfig traffic;
        traffic.load = load;
        SyntheticTraffic gen(&net, traffic, 13);
        for (Cycle c = 0; c < 4000; ++c) {
            gen.step(net.now());
            net.tick();
        }
        double total = 0;
        for (SubnetId s = 0; s < 4; ++s)
            total += net.sleep_fraction(s);
        return total / 4.0;
    };
    const double low = sleep_frac(0.01);
    const double mid = sleep_frac(0.15);
    const double high = sleep_frac(0.45);
    EXPECT_GT(low, mid);
    EXPECT_GE(mid, high);
    EXPECT_GT(low, 0.5);
}

} // namespace
} // namespace catnap
