// Reliable delivery over the simulator's lossy network: in lossy mode
// SimNetwork runs one PeerLink per node pair (the live transport's
// delivery layer, bound by sim::LinkLayer) and reads every drop as a
// connection reset — acks, resend-on-reconnect, duplicate suppression —
// plus full protocol runs on top of it.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <tuple>
#include <utility>
#include <vector>

#include "harness/cluster.hpp"
#include "harness/invariants.hpp"
#include "sim/links.hpp"
#include "sim/simnet.hpp"

namespace hlock::sim {
namespace {

struct Rig {
  explicit Rig(double loss)
      : net(sim, std::make_unique<UniformLatency>(msec(20)), Rng(5)),
        a(net, NodeId{0}),
        b(net, NodeId{1}) {
    net.set_lossy(loss);
    net.register_node(NodeId{0}, [this](const Message& m) { at_a.push_back(m); });
    net.register_node(NodeId{1}, [this](const Message& m) { at_b.push_back(m); });
  }
  LinkLayer& links() { return *net.links(); }

  Simulator sim;
  SimNetwork net;
  SimTransport a, b;
  std::vector<Message> at_a, at_b;
};

Message tagged(std::uint32_t i) {
  Message m;
  m.kind = MsgKind::kRequest;
  m.lock = LockId{i};
  return m;
}

TEST(ReliableTransport, LosslessPassThrough) {
  Rig rig(0.0);
  for (std::uint32_t i = 0; i < 10; ++i) rig.a.send(NodeId{1}, tagged(i));
  rig.sim.run_all();
  ASSERT_EQ(rig.at_b.size(), 10u);
  for (std::uint32_t i = 0; i < 10; ++i) EXPECT_EQ(rig.at_b[i].lock.value, i);
  EXPECT_EQ(rig.links().retransmissions(), 0u);
  EXPECT_EQ(rig.links().unacked(), 0u);
}

TEST(ReliableTransport, RecoversFromHeavyLoss) {
  Rig rig(0.30);
  for (std::uint32_t i = 0; i < 200; ++i) rig.a.send(NodeId{1}, tagged(i));
  rig.sim.run_all();
  ASSERT_EQ(rig.at_b.size(), 200u);
  // Exactly once, in order, despite ~30% of sends resetting the link.
  for (std::uint32_t i = 0; i < 200; ++i) EXPECT_EQ(rig.at_b[i].lock.value, i);
  EXPECT_GT(rig.links().retransmissions(), 0u);
  EXPECT_EQ(rig.links().unacked(), 0u);
  EXPECT_GT(rig.net.messages_dropped(), 0u);
}

TEST(ReliableTransport, BidirectionalTrafficUnderLoss) {
  Rig rig(0.20);
  for (std::uint32_t i = 0; i < 60; ++i) {
    rig.a.send(NodeId{1}, tagged(i));
    rig.b.send(NodeId{0}, tagged(1000 + i));
  }
  rig.sim.run_all();
  ASSERT_EQ(rig.at_b.size(), 60u);
  ASSERT_EQ(rig.at_a.size(), 60u);
  for (std::uint32_t i = 0; i < 60; ++i) {
    EXPECT_EQ(rig.at_b[i].lock.value, i);
    EXPECT_EQ(rig.at_a[i].lock.value, 1000 + i);
  }
  EXPECT_EQ(rig.links().unacked(), 0u);
}

// Messages in flight when a pair resets still arrive, and the reconnect
// resends them: the duplicates are dropped (and acked again), never
// handed to the node twice.
TEST(ReliableTransport, DuplicateAcksAndDataAreHarmless) {
  Rig rig(0.10);
  for (std::uint32_t i = 0; i < 100; ++i) rig.a.send(NodeId{1}, tagged(i));
  rig.sim.run_all();
  EXPECT_GT(rig.links().duplicates_dropped(), 0u);
  ASSERT_EQ(rig.at_b.size(), 100u);
  for (std::uint32_t i = 0; i < 100; ++i) EXPECT_EQ(rig.at_b[i].lock.value, i);
  EXPECT_GT(rig.net.message_count(MsgKind::kAck), 0u);
}

// ---------------------------------------------------------------------------
// Full protocol over a lossy network.
// ---------------------------------------------------------------------------

class LossyCluster : public ::testing::TestWithParam<double> {};

TEST_P(LossyCluster, ProtocolSafeAndLiveUnderLoss) {
  harness::ClusterConfig config;
  config.nodes = 8;
  config.spec.ops_per_node = 15;
  config.spec.seed = 77;
  config.loss_rate = GetParam();
  harness::HlsCluster cluster(config);
  harness::install_safety_probe(cluster);
  ASSERT_NO_THROW(cluster.run());
  EXPECT_EQ(harness::check_quiescent(cluster), "");
  if (GetParam() > 0.0) {
    EXPECT_GT(cluster.network().messages_dropped(), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(LossRates, LossyCluster,
                         ::testing::Values(0.0, 0.02, 0.05, 0.10, 0.20),
                         [](const auto& pinfo) {
                           return "loss" + std::to_string(static_cast<int>(
                                               pinfo.param * 100));
                         });

TEST(LossyCluster, NaimiBaselineAlsoSurvivesLoss) {
  harness::ClusterConfig config;
  config.nodes = 6;
  config.spec.ops_per_node = 12;
  config.loss_rate = 0.10;
  harness::NaimiCluster cluster(config, /*pure=*/true);
  ASSERT_NO_THROW(cluster.run());
}

// Exactly once, in order: on every (from, to) link the messages handed up
// carry sequence numbers 1, 2, 3, ... with none skipped or repeated, and
// every send is acked by the end. Both protocols, several seeds per rate.
class ExactlyOnceUnderLoss
    : public ::testing::TestWithParam<std::tuple<double, std::uint64_t>> {
 protected:
  void check(harness::detail::ClusterBase& cluster) {
    LinkLayer* links = cluster.network().links();
    ASSERT_NE(links, nullptr);
    std::map<std::pair<std::uint32_t, std::uint32_t>, std::uint64_t> last;
    std::uint64_t out_of_order = 0;
    std::uint64_t delivered = 0;
    links->on_deliver = [&](NodeId from, NodeId to, const Message& m) {
      std::uint64_t& seq = last[{from.value, to.value}];
      if (m.rel_seq != seq + 1) ++out_of_order;
      seq = m.rel_seq;
      ++delivered;
    };
    ASSERT_NO_THROW(cluster.run());
    links->on_deliver = nullptr;
    EXPECT_EQ(out_of_order, 0u);
    EXPECT_GT(delivered, 0u);
    EXPECT_EQ(links->unacked(), 0u);
    EXPECT_GT(cluster.network().messages_dropped(), 0u);
  }

  harness::ClusterConfig config() const {
    harness::ClusterConfig c;
    c.nodes = 8;
    c.spec.ops_per_node = 15;
    c.loss_rate = std::get<0>(GetParam());
    c.spec.seed = std::get<1>(GetParam());
    return c;
  }
};

TEST_P(ExactlyOnceUnderLoss, Hls) {
  harness::HlsCluster cluster(config());
  harness::install_safety_probe(cluster);
  check(cluster);
  EXPECT_EQ(harness::check_quiescent(cluster), "");
}

TEST_P(ExactlyOnceUnderLoss, Naimi) {
  harness::NaimiCluster cluster(config(), /*pure=*/false);
  check(cluster);
}

INSTANTIATE_TEST_SUITE_P(
    RatesAndSeeds, ExactlyOnceUnderLoss,
    ::testing::Combine(::testing::Values(0.02, 0.05, 0.10, 0.20),
                       ::testing::Values(std::uint64_t{1}, std::uint64_t{2},
                                         std::uint64_t{3})),
    [](const auto& pinfo) {
      return "loss" +
             std::to_string(static_cast<int>(std::get<0>(pinfo.param) * 100)) +
             "_seed" + std::to_string(std::get<1>(pinfo.param));
    });

}  // namespace
}  // namespace hlock::sim
