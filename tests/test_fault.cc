/**
 * @file
 * Golden-behavior tests for the fault injector and the graceful
 * degradation machinery (src/fault, DESIGN.md §10): one test per fault
 * kind, a randomized fault-soup soak, and the bit-identity guarantee for
 * empty plans. Everything here is seed-deterministic.
 */
#include <gtest/gtest.h>

#include <vector>

#include "fault/fault.h"
#include "noc/multinoc.h"
#include "obs/trace_buffer.h"
#include "sim/simulator.h"
#include "test_util.h"
#include "traffic/synthetic.h"

namespace catnap {
namespace {

/** Offers synthetic traffic for @p cycles cycles, then stops. */
void
run_traffic(MultiNoc &net, SyntheticTraffic &gen, Cycle cycles)
{
    const Cycle end = net.now() + cycles;
    while (net.now() < end) {
        gen.step(net.now());
        net.tick();
    }
}

TEST(Fault, RouterKillMasksSubnetAndDelivers)
{
    MultiNocConfig cfg = multi_noc_config(4, GatingKind::kCatnap);
    cfg.fault.kill_router(2000, 1, 12);
    MultiNoc net(cfg);
    ASSERT_NE(net.fault(), nullptr);

    SyntheticConfig traffic;
    traffic.load = 0.30; // enough pressure to keep subnet 1 populated
    SyntheticTraffic gen(&net, traffic, 17);
    run_traffic(net, gen, 5000);
    ASSERT_TRUE(test::drain_until_quiescent(net));

    const FaultController &fc = *net.fault();
    EXPECT_FALSE(fc.health().healthy(1));
    EXPECT_TRUE(fc.health().healthy(0));
    EXPECT_TRUE(fc.health().healthy(2));
    EXPECT_TRUE(fc.health().healthy(3));
    EXPECT_EQ(fc.subnet_failures(), 1u);
    // Subnet 0 survived, so its never-sleep duty is unchanged.
    EXPECT_EQ(fc.never_sleep_subnet(), 0);
    for (NodeId n = 0; n < net.num_nodes(); ++n)
        EXPECT_TRUE(net.router(1, n).failed());

    // Every offered packet was delivered: packets purged from the dead
    // subnet were retransmitted on a healthy one.
    EXPECT_EQ(net.metrics().offered_packets(),
              net.metrics().ejected_packets());
    EXPECT_EQ(net.metrics().dropped_packets(), 0u);
    // The kill really interrupted traffic in flight.
    EXPECT_GT(net.metrics().dropped_flits(), 0u);
    EXPECT_GT(net.metrics().retransmits(), 0u);
}

TEST(Fault, SubnetZeroKillPromotesLowestHealthy)
{
    MultiNocConfig cfg = multi_noc_config(4, GatingKind::kCatnap);
    cfg.fault.kill_router(1500, 0, 0);
    MultiNoc net(cfg);

    SyntheticConfig traffic;
    traffic.load = 0.10;
    SyntheticTraffic gen(&net, traffic, 23);
    run_traffic(net, gen, 1600);

    ASSERT_FALSE(net.fault()->health().healthy(0));
    EXPECT_EQ(net.fault()->never_sleep_subnet(), 1);

    // The promoted subnet holds the never-sleep duty from here on: keep
    // running and spot-check that none of its routers is ever asleep.
    for (int burst = 0; burst < 20; ++burst) {
        run_traffic(net, gen, 100);
        for (NodeId n = 0; n < net.num_nodes(); ++n)
            ASSERT_NE(net.router(1, n).power_state(), PowerState::kSleep)
                << "router " << n << " at cycle " << net.now();
    }
    ASSERT_TRUE(test::drain_until_quiescent(net));
    EXPECT_EQ(net.metrics().offered_packets(),
              net.metrics().ejected_packets() +
                  net.metrics().dropped_packets());
    EXPECT_EQ(net.metrics().dropped_packets(), 0u);
}

TEST(Fault, WakeTimeoutRetryScheduleIsExact)
{
    // A wake-stuck router must be re-asserted at T0 + t*(2^i - 1) for
    // retry i, and escalated to a hard failure after max_wake_retries.
    MultiNocConfig cfg = multi_noc_config(2, GatingKind::kIdle);
    cfg.fault.stick_wake(0, 0, 5);
    cfg.fault.tuning.t_wake_timeout = 16;
    cfg.fault.tuning.max_wake_retries = 3;
    MultiNoc net(cfg);
    EventTrace trace;
    net.set_event_sink(&trace);

    // No traffic: all routers power-gate after the idle-detect window.
    net.run(20);
    ASSERT_EQ(net.router(0, 5).power_state(), PowerState::kSleep);
    ASSERT_TRUE(net.router(0, 5).wake_stuck());

    // Mimic an upstream look-ahead: announce a packet and request the
    // wake. The wake starts but never completes (stuck).
    const Cycle t0 = net.now();
    net.router(0, 5).note_expected_packet(Direction::kLocal);
    net.router(0, 5).request_wakeup(Direction::kLocal);
    net.run(16 * 16); // past the escalation point with margin

    std::vector<TraceEvent> retries, escalations, health;
    trace.for_each([&](const TraceEvent &ev) {
        if (ev.kind == EventKind::kWakeRetry)
            retries.push_back(ev);
        else if (ev.kind == EventKind::kFaultInjected &&
                 ev.a == static_cast<std::int32_t>(FaultKind::kRouterFailure))
            escalations.push_back(ev);
        else if (ev.kind == EventKind::kSubnetHealth)
            health.push_back(ev);
    });

    // Retry i at exactly t0 + 16 * (2^i - 1).
    ASSERT_EQ(retries.size(), 3u);
    for (std::size_t i = 0; i < retries.size(); ++i) {
        EXPECT_EQ(retries[i].cycle,
                  t0 + 16u * ((1u << (i + 1)) - 1));
        EXPECT_EQ(retries[i].a, static_cast<std::int32_t>(i + 1));
        EXPECT_EQ(retries[i].node, 5);
        EXPECT_EQ(retries[i].subnet, 0);
    }
    // Escalation at t0 + 16 * (2^(max+1) - 1) = t0 + 240.
    ASSERT_EQ(escalations.size(), 1u);
    EXPECT_EQ(escalations[0].cycle, t0 + 240u);
    EXPECT_EQ(escalations[0].node, 5);
    ASSERT_EQ(health.size(), 1u);
    EXPECT_EQ(health[0].cycle, t0 + 240u);
    EXPECT_EQ(health[0].subnet, 0);
    EXPECT_EQ(health[0].b, 1); // subnet 1 inherits the never-sleep duty
    EXPECT_TRUE(net.router(0, 5).failed());
    EXPECT_FALSE(net.fault()->health().healthy(0));
}

TEST(Fault, LostWakesRecoverThroughRetries)
{
    // Every look-ahead wake is swallowed; recovery must come from the
    // announce-driven retry path (a sleeping router with announced
    // packets is re-woken by the gating layer, uninterceptably).
    MultiNocConfig cfg = multi_noc_config(2, GatingKind::kCatnap);
    cfg.fault.wake_loss_prob = 1.0;
    cfg.fault.tuning.t_wake_timeout = 16;
    MultiNoc net(cfg);

    SyntheticConfig traffic;
    traffic.load = 0.20;
    SyntheticTraffic gen(&net, traffic, 31);
    run_traffic(net, gen, 4000);
    ASSERT_TRUE(test::drain_until_quiescent(net, 200000));

    EXPECT_GT(net.fault()->faults_fired(), 0u); // wakes really were lost
    EXPECT_EQ(net.metrics().offered_packets(),
              net.metrics().ejected_packets());
    EXPECT_EQ(net.metrics().dropped_packets(), 0u);
    // No hard fault: both subnets still in service.
    EXPECT_EQ(net.fault()->subnet_failures(), 0u);
}

TEST(Fault, RcsGlitchIsTransient)
{
    MultiNocConfig cfg = multi_noc_config(2, GatingKind::kCatnap);
    // Glitch the RCS bit of (region of node 0, subnet 0) at cycle 50.
    // 50 is not an RCS latch boundary (period 6), so the flip lands
    // between latches and the next latch overwrites it.
    cfg.fault.glitch_rcs(50, 0, 0);
    MultiNoc net(cfg);
    const int region = net.mesh().region_of(0);

    net.run(51); // now == 51; the glitch fired at cycle 50
    EXPECT_TRUE(net.congestion().rcs_region(region, 0));
    EXPECT_EQ(net.fault()->faults_fired(), 1u);

    // Next latch boundary (cycle 54) recomputes the OR from the real
    // LCS bits, which are all clear on an idle network.
    net.run(5); // now == 56
    EXPECT_FALSE(net.congestion().rcs_region(region, 0));

    // The spurious congestion signal at worst woke subnet-1 routers in
    // the region; the network itself is untouched.
    ASSERT_TRUE(test::drain_until_quiescent(net));
    EXPECT_EQ(net.metrics().offered_packets(), 0u);
}

TEST(Fault, FaultSoupSoakStaysConservative)
{
    // Scheduled kills + a delayed-wake window + probabilistic lost wakes
    // and RCS glitches, under traffic. Conservation must hold: every
    // offered packet is eventually ejected or explicitly dropped. Run
    // twice to pin determinism.
    struct Tally {
        std::uint64_t offered, ejected, dropped, retransmits, faults,
            subnet_failures;
        bool drained;
        bool operator==(const Tally &) const = default;
    };
    auto run_once = [] {
        MultiNocConfig cfg = multi_noc_config(4, GatingKind::kCatnap);
        cfg.fault.kill_router(3000, 3, 40)
            .kill_router(6000, 2, 9)
            .delay_wakes(1000, 1, 20, 2000, 12);
        cfg.fault.wake_loss_prob = 0.05;
        cfg.fault.rcs_glitch_prob = 0.01;
        MultiNoc net(cfg);
        SyntheticConfig traffic;
        traffic.load = 0.10;
        SyntheticTraffic gen(&net, traffic, 77);
        run_traffic(net, gen, 10000);
        const bool drained = test::drain_until_quiescent(net, 300000);
        return Tally{net.metrics().offered_packets(),
                     net.metrics().ejected_packets(),
                     net.metrics().dropped_packets(),
                     net.metrics().retransmits(),
                     net.fault()->faults_fired(),
                     net.fault()->subnet_failures(),
                     drained};
    };

    const Tally a = run_once();
    EXPECT_TRUE(a.drained);
    EXPECT_EQ(a.offered, a.ejected + a.dropped);
    EXPECT_GT(a.ejected, 0u);
    EXPECT_EQ(a.subnet_failures, 2u);
    EXPECT_GT(a.faults, 2u); // the kills plus probabilistic activity

    // Same plan, same seeds: the soak is exactly reproducible.
    const Tally b = run_once();
    EXPECT_TRUE(a == b);
}

TEST(Fault, EmptyPlanIsBitIdentical)
{
    // An empty plan never constructs the fault subsystem, so a config
    // carrying one (even with a different fault seed) must produce
    // results identical to the untouched default config.
    SyntheticConfig traffic;
    traffic.load = 0.15;
    RunParams rp;
    rp.warmup = 300;
    rp.measure = 2000;
    rp.seed = 9;

    const MultiNocConfig base = multi_noc_config(4, GatingKind::kCatnap);
    MultiNocConfig with_plan = base;
    with_plan.fault.seed = 999; // still empty(): no events, zero probs
    with_plan.fault.tuning.t_wake_timeout = 8;
    ASSERT_TRUE(with_plan.fault.empty());
    {
        MultiNoc probe(with_plan);
        EXPECT_EQ(probe.fault(), nullptr);
    }

    const SyntheticResult a = run_synthetic(base, traffic, rp);
    const SyntheticResult b = run_synthetic(with_plan, traffic, rp);
    EXPECT_EQ(a.offered_rate, b.offered_rate);
    EXPECT_EQ(a.accepted_rate, b.accepted_rate);
    EXPECT_EQ(a.avg_latency, b.avg_latency);
    EXPECT_EQ(a.avg_net_latency, b.avg_net_latency);
    EXPECT_EQ(a.p50_latency, b.p50_latency);
    EXPECT_EQ(a.p99_latency, b.p99_latency);
    EXPECT_EQ(a.csc_percent, b.csc_percent);
    EXPECT_EQ(a.power.total(), b.power.total());
    EXPECT_EQ(a.measured_packets, b.measured_packets);
    EXPECT_EQ(a.retransmits, 0u);
    EXPECT_EQ(a.dropped_packets, 0u);
    EXPECT_TRUE(a.drained);
    EXPECT_TRUE(b.drained);
}

} // namespace
} // namespace catnap
