/**
 * @file
 * Tests for the concentrated-torus extension (the "other topologies"
 * direction of the paper's conclusion): wrap-aware routing and
 * distances, dateline VC discipline, deadlock freedom at saturation,
 * and Catnap gating on the torus.
 */
#include <gtest/gtest.h>

#include "ckpt/archive.h"
#include "noc/multinoc.h"
#include "noc/routing.h"
#include "test_util.h"
#include "traffic/synthetic.h"

namespace catnap {
namespace {

MultiNocConfig
torus_cfg(int subnets = 2)
{
    MultiNocConfig cfg = multi_noc_config(subnets, GatingKind::kAlwaysOn,
                                          SelectorKind::kRoundRobin);
    cfg.torus = true;
    return cfg;
}

TEST(Torus, NeighborsWrapAround)
{
    ConcentratedMesh t(8, 8, 4, 4, true);
    EXPECT_EQ(t.neighbor(0, Direction::kWest), 7);
    EXPECT_EQ(t.neighbor(0, Direction::kNorth), 56);
    EXPECT_EQ(t.neighbor(7, Direction::kEast), 0);
    EXPECT_EQ(t.neighbor(63, Direction::kSouth), 7);
    // Interior neighbours unchanged.
    EXPECT_EQ(t.neighbor(27, Direction::kEast), 28);
}

TEST(Torus, LinkWrapsOnlyAtSeams)
{
    ConcentratedMesh t(8, 8, 4, 4, true);
    EXPECT_TRUE(t.link_wraps(7, Direction::kEast));
    EXPECT_TRUE(t.link_wraps(0, Direction::kWest));
    EXPECT_TRUE(t.link_wraps(0, Direction::kNorth));
    EXPECT_TRUE(t.link_wraps(56, Direction::kSouth));
    EXPECT_FALSE(t.link_wraps(3, Direction::kEast));
    ConcentratedMesh m(8, 8, 4, 4, false);
    EXPECT_FALSE(m.link_wraps(7, Direction::kEast));
}

TEST(Torus, HopDistanceUsesShorterWay)
{
    ConcentratedMesh t(8, 8, 4, 4, true);
    EXPECT_EQ(t.hop_distance(0, 7), 1);  // wrap west
    EXPECT_EQ(t.hop_distance(0, 63), 2); // wrap both dimensions
    EXPECT_EQ(t.hop_distance(0, 3), 3);
    EXPECT_EQ(t.hop_distance(0, 4), 4);  // exact tie: distance k/2
    // The torus strictly dominates the mesh on average distance.
    ConcentratedMesh m(8, 8, 4, 4, false);
    EXPECT_LT(t.average_hop_distance(), m.average_hop_distance());
}

TEST(Torus, RoutePicksMinimalDirection)
{
    ConcentratedMesh t(8, 8, 4, 4, true);
    EXPECT_EQ(xy_route(t, 0, 7), Direction::kWest);  // 1 hop via wrap
    EXPECT_EQ(xy_route(t, 0, 3), Direction::kEast);  // 3 < 5
    EXPECT_EQ(xy_route(t, 0, 4), Direction::kEast);  // tie -> East
    EXPECT_EQ(xy_route(t, 0, 56), Direction::kNorth);
    EXPECT_EQ(xy_route(t, 5, 5), Direction::kLocal);
}

TEST(Torus, RouteAlwaysReachesWithMinimalHops)
{
    ConcentratedMesh t(8, 8, 4, 4, true);
    for (NodeId s = 0; s < t.num_nodes(); ++s) {
        for (NodeId d = 0; d < t.num_nodes(); ++d) {
            NodeId cur = s;
            int hops = 0;
            while (cur != d) {
                const Direction dir = xy_route(t, cur, d);
                ASSERT_NE(dir, Direction::kLocal);
                cur = t.neighbor(cur, dir);
                ASSERT_LE(++hops, 8);
            }
            EXPECT_EQ(hops, t.hop_distance(s, d));
        }
    }
}

TEST(Torus, RequiresDatelineVcPairs)
{
    MultiNocConfig cfg = torus_cfg();
    cfg.num_classes = 4; // 1 VC per class: no room for dateline pairs
    EXPECT_THROW(MultiNoc net(cfg), std::runtime_error);
    cfg.num_classes = 2; // 2 VCs per class: OK
    EXPECT_NO_THROW(MultiNoc net2(cfg));
}

TEST(Torus, AllPairsDelivery)
{
    MultiNocConfig cfg = torus_cfg(2);
    cfg.mesh_width = 4;
    cfg.mesh_height = 4;
    cfg.region_width = 2;
    MultiNoc net(cfg);
    int delivered = 0;
    for (NodeId n = 0; n < net.num_nodes(); ++n)
        net.ni(n).set_packet_sink([&](const Flit &, Cycle) { ++delivered; });
    PacketId id = 1;
    int offered = 0;
    for (NodeId s = 0; s < net.num_nodes(); ++s) {
        for (NodeId d = 0; d < net.num_nodes(); ++d) {
            if (s == d)
                continue;
            PacketDesc pkt;
            pkt.id = id++;
            pkt.src = s;
            pkt.dst = d;
            pkt.size_bits = 512;
            pkt.created = net.now();
            net.offer_packet(pkt);
            ++offered;
        }
    }
    EXPECT_TRUE(test::drain_until_quiescent(net, 30000));
    EXPECT_EQ(delivered, offered);
}

TEST(Torus, SaturationDoesNotDeadlock)
{
    // The critical dateline test: without the VC discipline, wrap rings
    // deadlock under sustained saturation. Require continuous forward
    // progress far past the point a deadlock would freeze everything.
    MultiNoc net(torus_cfg(1));
    SyntheticConfig traffic;
    traffic.load = 0.7; // way past saturation
    SyntheticTraffic gen(&net, traffic, 3);
    std::uint64_t last = 0;
    for (int epoch = 0; epoch < 20; ++epoch) {
        for (Cycle c = 0; c < 500; ++c) {
            gen.step(net.now());
            net.tick();
        }
        const std::uint64_t now_ejected = net.metrics().ejected_packets();
        ASSERT_GT(now_ejected, last)
            << "no forward progress in epoch " << epoch;
        last = now_ejected;
    }
}

TEST(Torus, AdversarialPatternsConserve)
{
    for (PatternKind pattern :
         {PatternKind::kTranspose, PatternKind::kBitComplement,
          PatternKind::kHotspot}) {
        MultiNoc net(torus_cfg(2));
        SyntheticConfig traffic;
        traffic.pattern = pattern;
        traffic.load = 0.3;
        SyntheticTraffic gen(&net, traffic, 5);
        for (Cycle c = 0; c < 1500; ++c) {
            gen.step(net.now());
            net.tick();
        }
        ASSERT_TRUE(test::drain_until_quiescent(net))
            << pattern_kind_name(pattern);
        EXPECT_EQ(net.metrics().offered_packets(),
                  net.metrics().ejected_packets())
            << pattern_kind_name(pattern);
    }
}

TEST(Torus, CatnapGatingWorksOnTorus)
{
    MultiNocConfig cfg = multi_noc_config(4, GatingKind::kCatnap);
    cfg.torus = true;
    MultiNoc net(cfg);
    SyntheticConfig traffic;
    traffic.load = 0.02;
    SyntheticTraffic gen(&net, traffic, 13);
    for (Cycle c = 0; c < 4000; ++c) {
        gen.step(net.now());
        net.tick();
    }
    net.finalize_accounting();
    EXPECT_GT(net.csc_percent(), 55.0);
    EXPECT_GT(net.metrics().ejected_packets(), 3000u);
    // Subnet 0 stays on; higher subnets sleep.
    for (NodeId n = 0; n < net.num_nodes(); ++n)
        EXPECT_EQ(net.router(0, n).power_state(), PowerState::kActive);
}

TEST(Torus, LoadedRunImageIsPinned)
{
    // No golden run covers a torus: this pins a loaded run's network
    // image, so a change to the dateline VC choice or to the order the
    // allocators visit requests shows here. A VC allocator that ignored
    // a wrap on the current hop still passes every other test.
    MultiNoc net(torus_cfg(2));
    SyntheticConfig traffic;
    traffic.load = 0.30;
    SyntheticTraffic gen(&net, traffic, 11);
    for (Cycle c = 0; c < 2000; ++c) {
        gen.step(net.now());
        net.tick();
    }
    ckpt::Writer w;
    net.Serialize(w);
    EXPECT_EQ(test::digest(w.bytes()), 0x2cbf8eb87dfdc738ULL);
}

TEST(Torus, LowerZeroLoadLatencyThanMesh)
{
    auto latency = [](bool torus) {
        MultiNocConfig cfg = multi_noc_config(2);
        cfg.torus = torus;
        MultiNoc net(cfg);
        net.metrics().set_measurement_window(0, kNoCycle);
        SyntheticConfig traffic;
        traffic.load = 0.02;
        SyntheticTraffic gen(&net, traffic, 17);
        for (Cycle c = 0; c < 4000; ++c) {
            gen.step(net.now());
            net.tick();
        }
        return net.metrics().total_latency().mean();
    };
    // Average hop count drops from ~5.3 to ~4 -> several cycles saved.
    EXPECT_LT(latency(true), latency(false) - 2.0);
}

} // namespace
} // namespace catnap
