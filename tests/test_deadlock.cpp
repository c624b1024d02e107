// Wait-for-graph and DeadlockMonitor tests, including a manufactured
// application-level cross-lock deadlock that the detector must name.
#include <gtest/gtest.h>

#include "harness/deadlock.hpp"
#include "harness/invariants.hpp"
#include "lockmgr/waitgraph.hpp"

namespace hlock {
namespace {

TEST(WaitForGraph, EmptyHasNoCycle) {
  lockmgr::WaitForGraph g;
  EXPECT_FALSE(g.find_cycle().has_value());
  EXPECT_EQ(g.edge_count(), 0u);
}

TEST(WaitForGraph, ChainHasNoCycle) {
  lockmgr::WaitForGraph g;
  g.add_edge(NodeId{0}, NodeId{1});
  g.add_edge(NodeId{1}, NodeId{2});
  g.add_edge(NodeId{2}, NodeId{3});
  EXPECT_FALSE(g.find_cycle().has_value());
  EXPECT_EQ(g.edge_count(), 3u);
}

TEST(WaitForGraph, DirectCycleFound) {
  lockmgr::WaitForGraph g;
  g.add_edge(NodeId{0}, NodeId{1});
  g.add_edge(NodeId{1}, NodeId{0});
  const auto cycle = g.find_cycle();
  ASSERT_TRUE(cycle.has_value());
  EXPECT_GE(cycle->size(), 3u);  // first == last
  EXPECT_EQ(cycle->front(), cycle->back());
}

TEST(WaitForGraph, LongCycleFound) {
  lockmgr::WaitForGraph g;
  g.add_edge(NodeId{0}, NodeId{1});
  g.add_edge(NodeId{1}, NodeId{2});
  g.add_edge(NodeId{2}, NodeId{3});
  g.add_edge(NodeId{3}, NodeId{1});  // cycle 1 -> 2 -> 3 -> 1
  const auto cycle = g.find_cycle();
  ASSERT_TRUE(cycle.has_value());
  EXPECT_EQ(cycle->size(), 4u);
}

TEST(WaitForGraph, SelfEdgesIgnored) {
  lockmgr::WaitForGraph g;
  g.add_edge(NodeId{0}, NodeId{0});
  EXPECT_EQ(g.edge_count(), 0u);
  EXPECT_FALSE(g.find_cycle().has_value());
}

TEST(WaitForGraph, DiamondIsAcyclic) {
  lockmgr::WaitForGraph g;
  g.add_edge(NodeId{0}, NodeId{1});
  g.add_edge(NodeId{0}, NodeId{2});
  g.add_edge(NodeId{1}, NodeId{3});
  g.add_edge(NodeId{2}, NodeId{3});
  EXPECT_FALSE(g.find_cycle().has_value());
}

TEST(WaitForGraph, HundredThousandNodeChainDoesNotOverflowTheStack) {
  // Regression for the recursive DFS: a convoy this deep used to burn a
  // stack frame (plus a std::function) per node and crash. The iterative
  // walk keeps all per-depth state on the heap.
  constexpr std::uint32_t kDepth = 100'000;
  lockmgr::WaitForGraph g;
  for (std::uint32_t i = 0; i < kDepth; ++i)
    g.add_edge(NodeId{i}, NodeId{i + 1});
  EXPECT_FALSE(g.find_cycle().has_value());
  g.add_edge(NodeId{kDepth}, NodeId{0});  // close the loop
  const auto cycle = g.find_cycle();
  ASSERT_TRUE(cycle.has_value());
  EXPECT_EQ(cycle->size(), kDepth + 2);  // every node + repeated head
  EXPECT_EQ(cycle->front(), cycle->back());
}

TEST(WaitForGraph, RemoveNodeDropsBothDirections) {
  lockmgr::WaitForGraph g;
  g.add_edge(NodeId{0}, NodeId{1});
  g.add_edge(NodeId{1}, NodeId{2});
  g.add_edge(NodeId{2}, NodeId{0});
  ASSERT_TRUE(g.find_cycle().has_value());
  g.remove_node(NodeId{1});
  EXPECT_FALSE(g.find_cycle().has_value());
  EXPECT_EQ(g.edge_count(), 1u);  // only 2 -> 0 survives
}

TEST(WaitForGraph, CountCyclesSeesDisjointCycles) {
  lockmgr::WaitForGraph g;
  g.add_edge(NodeId{0}, NodeId{1});
  g.add_edge(NodeId{1}, NodeId{0});
  g.add_edge(NodeId{10}, NodeId{11});
  g.add_edge(NodeId{11}, NodeId{12});
  g.add_edge(NodeId{12}, NodeId{10});
  g.add_edge(NodeId{20}, NodeId{21});  // acyclic appendix
  EXPECT_EQ(g.count_cycles(), 2u);
  // Counting works on a scratch copy: the graph itself is untouched.
  EXPECT_EQ(g.edge_count(), 6u);
  EXPECT_TRUE(g.find_cycle().has_value());
}

// ---------------------------------------------------------------------------

TEST(DeadlockMonitor, CleanClusterHasNoDeadlock) {
  harness::ClusterConfig config;
  config.nodes = 6;
  config.spec.ops_per_node = 10;
  harness::HlsCluster cluster(config);
  cluster.run();
  EXPECT_EQ(harness::describe_deadlock(cluster), "");
}

TEST(DeadlockMonitor, DetectsCrossLockOrderingDeadlock) {
  // Manufactured application bug: node 1 takes W on entry lock 1 then
  // wants W on entry lock 2; node 2 does the opposite, concurrently.
  harness::ClusterConfig config;
  config.nodes = 3;
  config.spec.ops_per_node = 0;
  config.spec.entries_per_node = 1;  // locks: table(0), entries 1..3
  harness::HlsCluster cluster(config);

  auto& sim = cluster.simulator();
  auto& n1 = cluster.node(1);
  auto& n2 = cluster.node(2);
  const LockId la{1}, lb{2};

  n1.set_on_acquired([&](LockId lock, RequestId, Mode) {
    if (lock == la) {
      sim.schedule_after(msec(1), [&] { (void)n1.engine(lb).request_lock(Mode::kW); });
    }
  });
  n2.set_on_acquired([&](LockId lock, RequestId, Mode) {
    if (lock == lb) {
      sim.schedule_after(msec(1), [&] { (void)n2.engine(la).request_lock(Mode::kW); });
    }
  });
  sim.schedule_at(0, [&] { (void)n1.engine(la).request_lock(Mode::kW); });
  sim.schedule_at(0, [&] { (void)n2.engine(lb).request_lock(Mode::kW); });
  sim.run_all();

  // Both are stuck waiting on each other; the monitor must see the cycle.
  const std::string report = harness::describe_deadlock(cluster);
  ASSERT_NE(report, "");
  EXPECT_NE(report.find("deadlock cycle"), std::string::npos);
  // Ordered acquisition (what naimi_same_work_plan and well-behaved apps
  // do) would have prevented this; the protocol itself stayed safe.
  EXPECT_EQ(harness::check_safety(cluster), "");
}

}  // namespace
}  // namespace hlock
