/**
 * @file
 * Router-level unit tests: credit-flow invariants, wormhole contiguity,
 * arbitration fairness, look-ahead route stamping, and edge behaviour.
 * These drive small meshes directly so individual router mechanisms are
 * observable.
 */
#include <gtest/gtest.h>

#include <map>

#include "noc/multinoc.h"
#include "test_util.h"
#include "traffic/synthetic.h"

namespace catnap {
namespace {

MultiNocConfig
tiny_mesh(int subnets = 1)
{
    MultiNocConfig cfg = multi_noc_config(subnets);
    cfg.mesh_width = 4;
    cfg.mesh_height = 4;
    cfg.region_width = 2;
    return cfg;
}

TEST(RouterUnit, CreditsNeverExceedDepth)
{
    MultiNoc net(tiny_mesh());
    SyntheticConfig traffic;
    traffic.load = 0.3;
    SyntheticTraffic gen(&net, traffic, 77);
    for (Cycle c = 0; c < 2000; ++c) {
        gen.step(net.now());
        net.tick();
        // Sample a few routers every cycle: inter-router output credits
        // must stay within [0, vc_depth].
        for (NodeId n : {0, 5, 10, 15}) {
            const Router &r = net.router(0, n);
            for (int p = 1; p < kNumPorts; ++p) {
                const Direction d = direction_from_index(p);
                if (net.mesh().neighbor(n, d) == kInvalidNode)
                    continue;
                for (VcId vc = 0; vc < net.config().num_vcs; ++vc) {
                    const int credits = r.output_credits(d, vc);
                    ASSERT_GE(credits, 0);
                    ASSERT_LE(credits, net.config().vc_depth_flits);
                }
            }
        }
    }
}

TEST(RouterUnit, CreditsRestoredWhenQuiescent)
{
    MultiNoc net(tiny_mesh());
    SyntheticConfig traffic;
    traffic.load = 0.2;
    SyntheticTraffic gen(&net, traffic, 3);
    for (Cycle c = 0; c < 1500; ++c) {
        gen.step(net.now());
        net.tick();
    }
    ASSERT_TRUE(test::drain_until_quiescent(net, 20000));
    net.run(10); // let in-flight credits land
    for (NodeId n = 0; n < net.num_nodes(); ++n) {
        const Router &r = net.router(0, n);
        for (int p = 1; p < kNumPorts; ++p) {
            const Direction d = direction_from_index(p);
            if (net.mesh().neighbor(n, d) == kInvalidNode)
                continue;
            for (VcId vc = 0; vc < net.config().num_vcs; ++vc) {
                EXPECT_EQ(r.output_credits(d, vc),
                          net.config().vc_depth_flits)
                    << "node " << n << " port " << direction_name(d)
                    << " vc " << vc;
            }
        }
    }
}

TEST(RouterUnit, PointToPointOrderingOnPinnedVcAndSubnet)
{
    // Section 2.3: message classes that need point-to-point ordering map
    // to one VC of one subnet. With a single subnet and one VC per class
    // (4 classes on 4 VCs), packets of one class between a fixed pair
    // travel the same deterministic route in the same VC and can never
    // reorder. (Packets spread across VCs or subnets MAY reorder -- that
    // is why ordered classes are pinned.)
    MultiNocConfig cfg = tiny_mesh(1);
    cfg.num_classes = 4;
    MultiNoc net(cfg);
    std::map<std::pair<NodeId, NodeId>, PacketId> last_seen;
    bool ok = true;
    for (NodeId n = 0; n < net.num_nodes(); ++n) {
        net.ni(n).set_packet_sink([&, n](const Flit &tail, Cycle) {
            auto key = std::make_pair(tail.src, n);
            auto it = last_seen.find(key);
            if (it != last_seen.end() && tail.pkt < it->second)
                ok = false;
            last_seen[key] = tail.pkt;
        });
    }
    // Packet ids increase with creation time per source.
    SyntheticConfig traffic;
    traffic.pattern = PatternKind::kTranspose; // fixed pairs
    traffic.load = 0.2;
    traffic.mc = MessageClass::kForward; // the ordered class
    SyntheticTraffic gen(&net, traffic, 9);
    for (Cycle c = 0; c < 3000; ++c) {
        gen.step(net.now());
        net.tick();
    }
    EXPECT_TRUE(ok) << "packets between a fixed pair were reordered";
    EXPECT_GT(last_seen.size(), 4u);
}

TEST(RouterUnit, ArbitrationIsStarvationFree)
{
    // Two flows continuously contend for the same output port; both
    // must make progress at comparable rates (round-robin fairness).
    MultiNoc net(tiny_mesh());
    std::map<NodeId, int> delivered;
    net.ni(3).set_packet_sink([&](const Flit &tail, Cycle) {
        ++delivered[tail.src];
    });
    PacketId id = 1;
    for (Cycle c = 0; c < 4000; ++c) {
        // Node 0 and node 1 both flood node 3 through the shared column.
        for (NodeId src : {0, 1}) {
            if (c % 2 == 0) {
                PacketDesc pkt;
                pkt.id = id++;
                pkt.src = src;
                pkt.dst = 3;
                pkt.size_bits = 512;
                pkt.created = net.now();
                net.offer_packet(pkt);
            }
        }
        net.tick();
    }
    ASSERT_GT(delivered[0], 100);
    ASSERT_GT(delivered[1], 100);
    const double ratio = static_cast<double>(delivered[0]) /
                         static_cast<double>(delivered[1]);
    EXPECT_GT(ratio, 0.8);
    EXPECT_LT(ratio, 1.25);
}

TEST(RouterUnit, RequestMasksBoundTheVcCount)
{
    // The allocators keep one bit per input VC in a 32-bit mask: five
    // ports of six VCs fit, five of seven do not.
    MultiNocConfig cfg = tiny_mesh();
    ASSERT_EQ(cfg.num_classes, 1);
    cfg.num_vcs = 7;
    EXPECT_THROW(MultiNoc net(cfg), std::runtime_error);
    cfg.num_vcs = 6;
    EXPECT_NO_THROW(MultiNoc net(cfg));
}

TEST(RouterUnit, PowerStateQueriesOnFreshRouter)
{
    MultiNoc net(tiny_mesh());
    const Router &r = net.router(0, 5);
    EXPECT_EQ(r.power_state(), PowerState::kActive);
    EXPECT_TRUE(r.buffers_empty());
    EXPECT_EQ(r.total_occupancy(), 0);
    EXPECT_EQ(r.max_port_occupancy(), 0);
    EXPECT_DOUBLE_EQ(r.avg_port_occupancy(), 0.0);
    EXPECT_EQ(r.expected_packets(), 0);
    EXPECT_TRUE(r.can_accept_at(Direction::kLocal, net.now()));
}

TEST(RouterUnit, CanSleepRequiresIdleStreak)
{
    MultiNocConfig cfg = tiny_mesh();
    cfg.gating = GatingKind::kAlwaysOn;
    MultiNoc net(cfg);
    // Fresh router: idle streak starts at zero, so it cannot sleep yet.
    EXPECT_FALSE(net.router(0, 0).can_sleep());
    net.run(cfg.t_idle_detect + 1);
    EXPECT_TRUE(net.router(0, 0).can_sleep());
}

TEST(RouterUnit, UTurnNeverHappens)
{
    // With X-Y routing a flit never leaves through the port it entered.
    // Saturate a network and rely on internal assertions (credit
    // accounting would corrupt on a U-turn); delivery correctness is
    // the observable.
    MultiNoc net(tiny_mesh(2));
    SyntheticConfig traffic;
    traffic.pattern = PatternKind::kBitComplement;
    traffic.load = 0.4;
    SyntheticTraffic gen(&net, traffic, 5);
    for (Cycle c = 0; c < 2000; ++c) {
        gen.step(net.now());
        net.tick();
    }
    EXPECT_TRUE(test::drain_until_quiescent(net, 30000));
    EXPECT_EQ(net.metrics().offered_packets(),
              net.metrics().ejected_packets());
}

TEST(RouterUnit, MinimalOneByOneMeshWorks)
{
    // Degenerate 1x2 mesh still routes.
    MultiNocConfig cfg = multi_noc_config(1);
    cfg.mesh_width = 2;
    cfg.mesh_height = 1;
    cfg.region_width = 1;
    MultiNoc net(cfg);
    int delivered = 0;
    net.ni(1).set_packet_sink([&](const Flit &, Cycle) { ++delivered; });
    PacketDesc pkt;
    pkt.id = 1;
    pkt.src = 0;
    pkt.dst = 1;
    pkt.size_bits = 512;
    pkt.created = 0;
    net.offer_packet(pkt);
    net.run(50);
    EXPECT_EQ(delivered, 1);
}

} // namespace
} // namespace catnap
