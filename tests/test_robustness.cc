/**
 * @file
 * Robustness / failure-injection tests: randomized packet soups,
 * adversarial wake-signal floods, load flapping, and long soak runs.
 * Every scenario must preserve the conservation invariant and keep the
 * network live.
 */
#include <gtest/gtest.h>

#include "common/rng.h"
#include "noc/multinoc.h"
#include "test_util.h"
#include "traffic/synthetic.h"

namespace catnap {
namespace {

TEST(Robustness, RandomPacketSoup)
{
    // Random sizes (1 flit .. 2x queue capacity), random classes,
    // random pairs, on the full Catnap stack.
    MultiNocConfig cfg = multi_noc_config(4, GatingKind::kCatnap);
    cfg.num_classes = 4;
    MultiNoc net(cfg);
    Rng rng(4242);
    PacketId id = 1;
    std::uint64_t offered = 0;
    for (Cycle c = 0; c < 4000; ++c) {
        if (rng.bernoulli(0.5)) {
            PacketDesc pkt;
            pkt.id = id++;
            pkt.src = static_cast<NodeId>(rng.next_below(64));
            pkt.dst = static_cast<NodeId>(rng.next_below(64));
            pkt.mc = static_cast<MessageClass>(rng.next_below(4));
            pkt.size_bits = 1 + static_cast<int>(rng.next_below(4096));
            pkt.created = net.now();
            net.offer_packet(pkt);
            ++offered;
        }
        net.tick();
    }
    ASSERT_TRUE(test::drain_until_quiescent(net));
    EXPECT_EQ(net.metrics().offered_packets(), offered);
    EXPECT_EQ(net.metrics().ejected_packets(), offered);
    EXPECT_EQ(net.metrics().offered_flits(),
              net.metrics().ejected_flits());
}

TEST(Robustness, SpuriousWakeSignalsAreHarmless)
{
    // Flood random routers with look-ahead wake requests while traffic
    // flows: wakes cost power but must never corrupt delivery.
    MultiNocConfig cfg = multi_noc_config(4, GatingKind::kCatnap);
    MultiNoc net(cfg);
    Rng rng(7);
    SyntheticConfig traffic;
    traffic.load = 0.05;
    SyntheticTraffic gen(&net, traffic, 11);
    for (Cycle c = 0; c < 3000; ++c) {
        gen.step(net.now());
        for (int k = 0; k < 8; ++k) {
            net.router(static_cast<SubnetId>(rng.next_below(4)),
                       static_cast<NodeId>(rng.next_below(64)))
                .request_wakeup(Direction::kLocal);
        }
        net.tick();
    }
    ASSERT_TRUE(test::drain_until_quiescent(net, 60000));
    EXPECT_EQ(net.metrics().offered_packets(),
              net.metrics().ejected_packets());
}

TEST(Robustness, LoadFlapping)
{
    // Alternate hard between idle and saturation every 200 cycles: the
    // worst case for gating hysteresis. Forward progress and eventual
    // drain must survive.
    MultiNoc net(multi_noc_config(4, GatingKind::kCatnap));
    SyntheticConfig traffic;
    traffic.load = 0.0;
    SyntheticTraffic gen(&net, traffic, 3);
    gen.set_schedule([](Cycle now) {
        return (now / 200) % 2 == 0 ? 0.0 : 0.45;
    });
    std::uint64_t last = 0;
    for (int epoch = 0; epoch < 10; ++epoch) {
        for (Cycle c = 0; c < 400; ++c) {
            gen.step(net.now());
            net.tick();
        }
        EXPECT_GT(net.metrics().ejected_packets(), last);
        last = net.metrics().ejected_packets();
    }
    ASSERT_TRUE(test::drain_until_quiescent(net));
    EXPECT_EQ(net.metrics().offered_packets(),
              net.metrics().ejected_packets());
}

TEST(Robustness, HotspotDrainsAfterStorm)
{
    // Everyone hammers one node, then stops: ejection bandwidth at the
    // hotspot limits drain, but the network must fully recover and the
    // higher subnets must eventually sleep again.
    MultiNoc net(multi_noc_config(4, GatingKind::kCatnap));
    PacketId id = 1;
    for (Cycle c = 0; c < 300; ++c) {
        for (NodeId n = 0; n < 64; n += 4) {
            if (n == 27)
                continue;
            PacketDesc pkt;
            pkt.id = id++;
            pkt.src = n;
            pkt.dst = 27;
            pkt.size_bits = 512;
            pkt.created = net.now();
            net.offer_packet(pkt);
        }
        net.tick();
    }
    ASSERT_TRUE(test::drain_until_quiescent(net, 200000));
    EXPECT_EQ(net.metrics().offered_packets(),
              net.metrics().ejected_packets());
    net.run(300);
    int asleep = 0;
    for (SubnetId s = 1; s < 4; ++s)
        for (NodeId n = 0; n < 64; ++n)
            asleep += net.router(s, n).power_state() == PowerState::kSleep;
    EXPECT_EQ(asleep, 3 * 64);
}

TEST(Robustness, SoakBurstyLongRun)
{
    // 50k cycles of the Figure 12 burst schedule repeated: conservation
    // and live-ness held throughout, CSC stays in range.
    MultiNoc net(multi_noc_config(4, GatingKind::kCatnap));
    SyntheticConfig traffic;
    SyntheticTraffic gen(&net, traffic, 1);
    gen.set_schedule([](Cycle now) {
        const Cycle t = now % 3000;
        if (t >= 1000 && t < 1500)
            return 0.30;
        if (t >= 2000 && t < 2500)
            return 0.10;
        return 0.01;
    });
    for (Cycle c = 0; c < 50000; ++c) {
        gen.step(net.now());
        net.tick();
    }
    ASSERT_TRUE(test::drain_until_quiescent(net));
    EXPECT_EQ(net.metrics().offered_packets(),
              net.metrics().ejected_packets());
    net.finalize_accounting();
    const double csc = net.csc_percent();
    EXPECT_GT(csc, 20.0);
    EXPECT_LE(csc, 75.1);
}

TEST(Robustness, EveryMeshShapeDelivers)
{
    // Non-square and minimal meshes.
    struct Shape
    {
        int w, h, region;
    };
    for (const Shape s : {Shape{2, 2, 1}, Shape{8, 2, 2}, Shape{2, 8, 2},
                          Shape{16, 4, 4}, Shape{3, 3, 3}}) {
        MultiNocConfig cfg = multi_noc_config(2, GatingKind::kCatnap);
        cfg.mesh_width = s.w;
        cfg.mesh_height = s.h;
        cfg.region_width = s.region;
        MultiNoc net(cfg);
        SyntheticConfig traffic;
        traffic.load = 0.1;
        SyntheticTraffic gen(&net, traffic, 5);
        for (Cycle c = 0; c < 800; ++c) {
            gen.step(net.now());
            net.tick();
        }
        ASSERT_TRUE(test::drain_until_quiescent(net, 60000))
            << s.w << "x" << s.h;
        EXPECT_EQ(net.metrics().offered_packets(),
                  net.metrics().ejected_packets())
            << s.w << "x" << s.h;
    }
}

} // namespace
} // namespace catnap
