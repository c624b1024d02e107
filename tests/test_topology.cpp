// Initial-topology tests: the protocol must behave identically (same
// safety, same quiescence) from star, chain and random-tree seedings —
// only message counts differ. Exercises the initial_parent plumbing the
// paper's Figure 1 topologies need.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <vector>

#include "common/cluster_map.hpp"
#include "common/rng.hpp"
#include "core/hls_engine.hpp"
#include "test_util.hpp"

namespace hlock::core {
namespace {

enum class Topology { kStar, kChain, kRandomTree };

struct Net {
  Net(std::size_t n, Topology topology, std::uint64_t seed,
      EngineOptions opts = {}, const ClusterMap* map = nullptr) {
    Rng rng(seed);
    for (std::uint32_t i = 0; i < n; ++i) {
      NodeId parent = NodeId::invalid();
      if (i != 0) {
        switch (topology) {
          case Topology::kStar: break;  // default: point at the root
          case Topology::kChain: parent = NodeId{i - 1}; break;
          case Topology::kRandomTree:
            parent = NodeId{static_cast<std::uint32_t>(rng.next_below(i))};
            break;
        }
      }
      const NodeId id{i};
      engines.push_back(factory.make(
          id, NodeId{0}, bus.port(id), opts,
          [this, i](RequestId rid, Mode mode) {
            acquired[i].emplace_back(rid, mode);
            order.push_back(i);
          },
          {}, parent, map));
      HlsEngine* raw = engines.back().get();
      bus.register_handler(id, [raw](const Message& m) { raw->handle(m); });
    }
  }

  void pump() { bus.deliver_all(); }

  testing::TestBus bus;
  testing::EngineFactory factory;
  std::vector<std::unique_ptr<HlsEngine>> engines;
  std::map<std::uint32_t, std::vector<std::pair<RequestId, Mode>>> acquired;
  /// Global acquisition order (node ids, in grant order).
  std::vector<std::uint32_t> order;
};

class TopologyTest : public ::testing::TestWithParam<Topology> {};

TEST_P(TopologyTest, DeepestNodeAcquiresThroughTheWholePath) {
  Net net(8, GetParam(), 3);
  (void)net.engines[7]->request_lock(Mode::kW);
  net.pump();
  ASSERT_EQ(net.acquired[7].size(), 1u);
  EXPECT_TRUE(net.engines[7]->is_token_node());
  net.engines[7]->unlock(net.acquired[7][0].first);
  net.pump();
}

TEST_P(TopologyTest, ConcurrentReadersFromEveryNode) {
  Net net(8, GetParam(), 4);
  (void)net.engines[0]->request_lock(Mode::kR);
  for (std::uint32_t i = 1; i < 8; ++i) {
    (void)net.engines[i]->request_lock(Mode::kR);
    net.pump();
  }
  net.pump();
  // Everyone holds R concurrently.
  for (std::uint32_t i = 0; i < 8; ++i) {
    ASSERT_EQ(net.acquired[i].size(), 1u) << "node " << i;
    EXPECT_EQ(net.acquired[i][0].second, Mode::kR);
  }
  // Release all; system must quiesce with one token and empty copysets.
  for (std::uint32_t i = 0; i < 8; ++i) {
    net.engines[i]->unlock(net.acquired[i][0].first);
    net.pump();
  }
  std::size_t tokens = 0;
  for (const auto& e : net.engines) {
    tokens += e->is_token_node() ? 1 : 0;
    EXPECT_TRUE(e->holds().empty());
    EXPECT_EQ(e->copyset_size(), 0u);
    EXPECT_TRUE(e->queue().empty());
  }
  EXPECT_EQ(tokens, 1u);
}

TEST_P(TopologyTest, PathCompressionAmortizesAcrossRounds) {
  Net net(8, GetParam(), 5);
  auto round = [&]() -> std::uint64_t {
    const auto before = net.bus.total_sent();
    for (std::uint32_t i = 0; i < 8; ++i) {
      (void)net.engines[i]->request_lock(Mode::kW);
      net.pump();
      auto& log = net.acquired[i];
      net.engines[i]->unlock(log.back().first);
      net.pump();
    }
    return net.bus.total_sent() - before;
  };
  (void)round();  // warm-up: tree reshapes from the seeded topology
  const auto second = round();
  const auto third = round();
  // Unlike Naimi, this protocol does not reverse paths on forwards:
  // rotating exclusive writers is its worst case and costs O(n) messages
  // per request. The cost must, however, reach a steady state (the tree
  // reshape is stable) and stay linear in n.
  EXPECT_EQ(second, third);
  EXPECT_LE(third, 8u * (8u + 2u));
  // The real compression benefit: a node RE-acquiring right after its
  // own release pays nothing (it still owns nothing... the token moved)
  // — the cheap path is the token holder's, which is message-free.
  const auto before = net.bus.total_sent();
  for (int k = 0; k < 5; ++k) {
    (void)net.engines[7]->request_lock(Mode::kW);
    net.pump();
    net.engines[7]->unlock(net.acquired[7].back().first);
    net.pump();
  }
  // Node 7 ended the last round as the token holder: five more W cycles
  // from it are free.
  EXPECT_EQ(net.bus.total_sent(), before);
}

INSTANTIATE_TEST_SUITE_P(Shapes, TopologyTest,
                         ::testing::Values(Topology::kStar, Topology::kChain,
                                           Topology::kRandomTree),
                         [](const auto& pinfo) {
                           switch (pinfo.param) {
                             case Topology::kStar: return "star";
                             case Topology::kChain: return "chain";
                             case Topology::kRandomTree: return "random";
                           }
                           return "?";
                         });

TEST(Topology, SelfParentRejected) {
  testing::TestBus bus;
  const EngineContext ctx(NodeId{1}, bus.port(NodeId{1}));
  EXPECT_THROW(HlsEngine(ctx, LockId{0}, NodeId{0}, NodeId{1}),
               std::invalid_argument);
}

// --- Locality-biased token service ----------------------------------------

EngineOptions bias_opts(std::uint8_t cap) {
  EngineOptions opts;
  opts.locality_bias = true;
  opts.locality_fairness_cap = cap;
  return opts;
}

/// The correctness invariants of the existing shapes must survive with the
/// bias enabled under a 2-cluster split: everyone still acquires, and the
/// system still quiesces to one token / empty copysets and queues.
class BiasedTopologyTest : public ::testing::TestWithParam<Topology> {};

TEST_P(BiasedTopologyTest, AllWritersAcquireAndQuiesce) {
  const ClusterMap map = ClusterMap::make(8, 2, ClusterPlacement::kBlock);
  Net net(8, GetParam(), 11, bias_opts(4), &map);
  for (std::uint32_t i = 0; i < 8; ++i)
    (void)net.engines[i]->request_lock(Mode::kW);
  net.pump();
  for (std::uint32_t i = 0; i < 8; ++i) {
    // Writers are granted one at a time; release as grants land until
    // everyone has held the lock once.
    for (std::uint32_t j = 0; j < 8; ++j) {
      if (net.acquired[j].size() == 1 && !net.engines[j]->holds().empty()) {
        net.engines[j]->unlock(net.acquired[j][0].first);
        net.pump();
      }
    }
  }
  std::size_t tokens = 0;
  for (std::uint32_t i = 0; i < 8; ++i) {
    EXPECT_EQ(net.acquired[i].size(), 1u) << "node " << i;
    tokens += net.engines[i]->is_token_node() ? 1 : 0;
    EXPECT_TRUE(net.engines[i]->holds().empty());
    EXPECT_TRUE(net.engines[i]->queue().empty());
  }
  EXPECT_EQ(tokens, 1u);
}

TEST_P(BiasedTopologyTest, ConcurrentReadersUnaffectedByBias) {
  const ClusterMap map = ClusterMap::make(8, 2, ClusterPlacement::kBlock);
  Net net(8, GetParam(), 12, bias_opts(4), &map);
  for (std::uint32_t i = 0; i < 8; ++i) {
    (void)net.engines[i]->request_lock(Mode::kR);
    net.pump();
  }
  for (std::uint32_t i = 0; i < 8; ++i) {
    ASSERT_EQ(net.acquired[i].size(), 1u) << "node " << i;
    EXPECT_EQ(net.acquired[i][0].second, Mode::kR);
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, BiasedTopologyTest,
                         ::testing::Values(Topology::kStar, Topology::kChain,
                                           Topology::kRandomTree),
                         [](const auto& pinfo) {
                           switch (pinfo.param) {
                             case Topology::kStar: return "star";
                             case Topology::kChain: return "chain";
                             case Topology::kRandomTree: return "random";
                           }
                           return "?";
                         });

/// Sets up the canonical bias scenario on a star: nodes 0-3 are cluster 0,
/// nodes 4-7 cluster 1. Node 7 holds W; a REMOTE writer (node 0) queues
/// first and LOCAL writers 4, 5, 6 queue behind it. Queue merges on token
/// transfer re-sort by Lamport (counter, node), so the rig first ticks each
/// local's clock with a released read: every W request below then carries
/// counter 2, and the remote's lower node id keeps it at the global FIFO
/// head — the position the fairness cap protects.
struct BiasRig {
  BiasRig(EngineOptions opts, const ClusterMap* map)
      : net(8, Topology::kStar, 13, opts, map) {
    for (std::uint32_t i = 4; i <= 6; ++i) {
      (void)net.engines[i]->request_lock(Mode::kR);
      net.pump();
      net.engines[i]->unlock(net.acquired[i][0].first);
      net.pump();
    }
    net.order.clear();
    (void)net.engines[7]->request_lock(Mode::kW);
    net.pump();
    (void)net.engines[0]->request_lock(Mode::kW);  // remote head, stamp (2,0)
    net.pump();
    for (std::uint32_t i = 4; i <= 6; ++i) {  // locals behind it, (2,4..6)
      (void)net.engines[i]->request_lock(Mode::kW);
      net.pump();
    }
  }

  /// Node 7 releases; then every grant is released as it lands until all
  /// five writers have held the lock.
  void drain() {
    net.engines[7]->unlock(net.acquired[7][0].first);
    net.pump();
    for (int guard = 0; guard < 16 && net.order.size() < 5; ++guard) {
      for (std::uint32_t i = 0; i < 8; ++i) {
        if (!net.engines[i]->holds().empty()) {
          net.engines[i]->unlock(net.acquired[i].back().first);
          net.pump();
        }
      }
    }
    ASSERT_EQ(net.order.size(), 5u);
  }

  Net net;
};

TEST(LocalityBias, SameClusterWaitersOvertakeARemoteHead) {
  const ClusterMap map = ClusterMap::make(8, 2, ClusterPlacement::kBlock);
  BiasRig rig(bias_opts(4), &map);
  rig.drain();
  // Cap 4 covers all three locals: 7, then 4, 5, 6, then the remote 0.
  EXPECT_EQ(rig.net.order,
            (std::vector<std::uint32_t>{7, 4, 5, 6, 0}));
}

TEST(LocalityBias, FairnessCapBoundsRemoteWaiterBypass) {
  const ClusterMap map = ClusterMap::make(8, 2, ClusterPlacement::kBlock);
  BiasRig rig(bias_opts(2), &map);
  rig.drain();
  // The remote head may be bypassed at most twice — even though the token
  // moves 7 -> 4 -> 5 inside the cluster, the streak rides the token, so
  // node 5 must serve the remote before local 6.
  EXPECT_EQ(rig.net.order,
            (std::vector<std::uint32_t>{7, 4, 5, 0, 6}));
}

TEST(LocalityBias, StrictFifoWithoutBias) {
  const ClusterMap map = ClusterMap::make(8, 2, ClusterPlacement::kBlock);
  BiasRig rig(EngineOptions{}, &map);
  rig.drain();
  EXPECT_EQ(rig.net.order,
            (std::vector<std::uint32_t>{7, 0, 4, 5, 6}));
}

TEST(LocalityBias, InertWithoutAClusterMap) {
  // bias on, no map installed: strict FIFO, exactly as today.
  BiasRig plain(bias_opts(4), nullptr);
  plain.drain();
  EXPECT_EQ(plain.net.order,
            (std::vector<std::uint32_t>{7, 0, 4, 5, 6}));
}

TEST(LocalityBias, ReadersBatchWithARemoteWriterWaiting) {
  // Local readers are compatible with each other: with the token at node 0
  // and a remote W queued ahead of local Rs, the bias serves the local
  // readers (copy grants) before handing the token across the boundary.
  const ClusterMap map = ClusterMap::make(8, 2, ClusterPlacement::kBlock);
  Net net(8, Topology::kStar, 14, bias_opts(4), &map);
  (void)net.engines[0]->request_lock(Mode::kW);
  net.pump();
  (void)net.engines[4]->request_lock(Mode::kW);
  net.pump();
  (void)net.engines[1]->request_lock(Mode::kR);
  (void)net.engines[2]->request_lock(Mode::kR);
  net.pump();
  net.engines[0]->unlock(net.acquired[0][0].first);
  net.pump();
  // Readers 1 and 2 overtake the remote writer (2 bypasses <= cap 4).
  ASSERT_EQ(net.acquired[1].size(), 1u);
  ASSERT_EQ(net.acquired[2].size(), 1u);
  EXPECT_TRUE(net.acquired[4].empty());
  net.engines[1]->unlock(net.acquired[1][0].first);
  net.engines[2]->unlock(net.acquired[2][0].first);
  net.pump();
  ASSERT_EQ(net.acquired[4].size(), 1u);
  net.engines[4]->unlock(net.acquired[4][0].first);
  net.pump();
}

TEST(Topology, ChainCostsMoreMessagesThanStarInitially) {
  Net star(8, Topology::kStar, 6);
  Net chain(8, Topology::kChain, 6);
  (void)star.engines[7]->request_lock(Mode::kW);
  star.pump();
  (void)chain.engines[7]->request_lock(Mode::kW);
  chain.pump();
  // The chain request is relayed through six intermediates.
  EXPECT_GT(chain.bus.total_sent(), star.bus.total_sent());
  star.engines[7]->unlock(star.acquired[7][0].first);
  chain.engines[7]->unlock(chain.acquired[7][0].first);
}

}  // namespace
}  // namespace hlock::core
