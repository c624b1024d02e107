// ShardedSimulator and the many-lock forest harness: the load-bearing
// property is that results are bitwise-invariant to the shard count and
// the thread count (the CI oracle cmp depends on it), plus the lazy
// engine materialization that keeps 10^5-lock forests cheap. Coupled
// forests run on one simulator, so for them the shard and thread counts
// must have no effect at all.
#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <vector>

#include "harness/many_locks_cluster.hpp"
#include "sim/sharded.hpp"

using namespace hlock;
using namespace hlock::harness;

namespace {

ManyLocksConfig small_config() {
  ManyLocksConfig cfg;
  cfg.nodes = 3;
  cfg.trees = 6;
  cfg.levels = 4;
  cfg.spec.lock_count = 6 * 200;
  cfg.spec.zipf_theta = 0.9;
  cfg.spec.ops_per_node = 8;
  cfg.spec.seed = 0xf00d;
  return cfg;
}

ManyLocksResult run_with(ManyLocksConfig cfg, std::size_t shards,
                         std::size_t threads = 0) {
  cfg.shards = shards;
  cfg.run_threads = threads;
  ManyLocksCluster cluster(cfg);
  cluster.run();
  return cluster.result();
}

}  // namespace

TEST(ShardedSimulator, DrainEachVisitsEveryShardOnceWithNoRounds) {
  // Each shard drains on its own: every shard index is handed out exactly
  // once, at any worker count.
  for (const std::size_t threads : {1u, 2u, 8u}) {
    sim::ShardedSimulator sharded(5);
    std::vector<std::atomic<int>> visits(5);
    sharded.drain_each(threads, [&](std::size_t shard) {
      visits[shard].fetch_add(1, std::memory_order_relaxed);
      sharded.shard(shard).schedule_at(10, [] {});
      sharded.shard(shard).run_all();
    });
    for (const auto& v : visits) EXPECT_EQ(v.load(), 1);
    EXPECT_EQ(sharded.events_processed(), 5u);
  }
}

TEST(ShardedSimulator, DrainEachRethrowsAShardsError) {
  for (const std::size_t threads : {1u, 4u}) {
    sim::ShardedSimulator sharded(4);
    EXPECT_THROW(sharded.drain_each(threads,
                                    [](std::size_t shard) {
                                      if (shard == 2)
                                        throw std::runtime_error("shard 2");
                                    }),
                 std::runtime_error);
  }
}

namespace {

// A local event and two keyed ones (keys 2 then 1), all landing at t=100
// on `s`; the keyed ones are scheduled later, from an event at t=10. This
// is how a coupled forest delivers cross-tree legs on its one shard.
void schedule_keyed_race(sim::Simulator& s, std::vector<int>& order) {
  s.schedule_at(100, [&order] { order.push_back(0); });
  s.schedule_at(10, [&s, &order] {
    s.schedule_cross_at(100, /*key=*/2, [&order] { order.push_back(2); });
    s.schedule_cross_at(100, /*key=*/1, [&order] { order.push_back(1); });
  });
}

}  // namespace

TEST(ShardedSimulator, CrossPostOrdersByKeyNotInsertionTime) {
  // On a shard, locals (key 0) run first, then keyed events by key,
  // regardless of insertion time and insertion order.
  sim::ShardedSimulator sharded(1);
  std::vector<int> order;
  schedule_keyed_race(sharded.shard(0), order);
  sharded.shard(0).run_all();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(sharded.events_processed(), 4u);
  EXPECT_EQ(sharded.mailbox_events(), 0u);  // no cross-shard mailboxes
}

TEST(ShardedSimulator, SameShardPostMatchesMailboxPost) {
  // The keyed order does not depend on which shard runs it or on how many
  // shards drain beside it: every shard of a parallel drain_each sees the
  // order a lone shard sees.
  const std::vector<int> expected{0, 1, 2};
  sim::ShardedSimulator sharded(3);
  std::vector<std::vector<int>> orders(3);
  for (std::size_t i = 0; i < 3; ++i)
    schedule_keyed_race(sharded.shard(i), orders[i]);
  sharded.drain_each(3, [&](std::size_t shard) {
    sharded.shard(shard).run_all();
  });
  for (const auto& order : orders) EXPECT_EQ(order, expected);
  EXPECT_EQ(sharded.events_processed(), 3u * 4u);
}

TEST(ManyLocks, CompletesEveryOp) {
  const ManyLocksResult r = run_with(small_config(), 1);
  EXPECT_EQ(r.ops, 6u * 3 * 8);
  EXPECT_GT(r.lock_requests, r.ops);  // >= 3 locks per op
  EXPECT_GT(r.messages, 0u);
  EXPECT_GT(r.virtual_end, 0);
  EXPECT_EQ(r.latency_factor.count(), r.ops);
}

TEST(ManyLocks, ResultInvariantToShardCount) {
  const ManyLocksConfig cfg = small_config();
  const ManyLocksResult serial = run_with(cfg, 1);
  // 2 and 3 shards exercise uneven tree -> shard partitions.
  EXPECT_EQ(serial, run_with(cfg, 2));
  EXPECT_EQ(serial, run_with(cfg, 3));
  EXPECT_EQ(serial, run_with(cfg, 6));
}

TEST(ManyLocks, ResultInvariantToThreadCount) {
  const ManyLocksConfig cfg = small_config();
  const ManyLocksResult serial = run_with(cfg, 4, 1);
  EXPECT_EQ(serial, run_with(cfg, 4, 2));
  EXPECT_EQ(serial, run_with(cfg, 4, 4));
  EXPECT_EQ(serial, run_with(cfg, 4, 8));  // more threads than shards
}

TEST(ManyLocks, LazyEnginesMaterializeOnlyTouchedLocks) {
  ManyLocksConfig cfg = small_config();
  cfg.spec.lock_count = 6 * 5000;  // big id space, few ops
  cfg.spec.ops_per_node = 4;
  ManyLocksCluster cluster(cfg);
  cluster.run();
  const ManyLocksResult r = cluster.result();
  EXPECT_EQ(r.locks_total, 6u * 5000);
  // Zipf-hot pages plus ancestors: a tiny touched set. Full eager
  // instantiation would be locks_total * nodes engines.
  EXPECT_LT(r.engines_materialized, r.locks_total);
  EXPECT_GT(r.engines_materialized, 0u);
}

TEST(ManyLocks, ZipfSkewShrinksTouchedSet) {
  ManyLocksConfig cfg = small_config();
  cfg.spec.lock_count = 6 * 2000;
  ManyLocksConfig uniform = cfg;
  uniform.spec.zipf_theta = 0.0;
  ManyLocksConfig hot = cfg;
  hot.spec.zipf_theta = 1.2;
  EXPECT_LT(run_with(hot, 1).engines_materialized,
            run_with(uniform, 1).engines_materialized);
}

TEST(ManyLocks, RejectsBadConfig) {
  ManyLocksConfig cfg = small_config();
  cfg.spec.lock_count = 0;
  EXPECT_THROW(ManyLocksCluster{cfg}, std::invalid_argument);
  cfg = small_config();
  cfg.trees = 0;
  EXPECT_THROW(ManyLocksCluster{cfg}, std::invalid_argument);
  cfg = small_config();
  cfg.levels = 5;
  EXPECT_THROW(ManyLocksCluster{cfg}, std::invalid_argument);
  cfg = small_config();
  cfg.nodes = 0;
  EXPECT_THROW(ManyLocksCluster{cfg}, std::invalid_argument);
}

TEST(ManyLocks, ThreeLevelForestRuns) {
  ManyLocksConfig cfg = small_config();
  cfg.levels = 3;
  const ManyLocksResult serial = run_with(cfg, 1);
  EXPECT_EQ(serial.ops, 6u * 3 * 8);
  EXPECT_EQ(serial, run_with(cfg, 3));
}

// --- multi-tree transactions (coupled forests) ------------------------

TEST(ManyLocks, CoupledResultInvariantToShardAndThreadCount) {
  // With cross-tree ops the trees are no longer disjoint, so the forest
  // runs on one simulator whatever shards and run_threads say, and the
  // keyed (t, key) event order fixes the run. The CI coupled cmp step
  // checks the same at the binary level.
  ManyLocksConfig cfg = small_config();
  cfg.cross_tree_pct = 25.0;
  const ManyLocksResult serial = run_with(cfg, 1);
  EXPECT_GT(serial.cross_tree_ops, 0u);
  EXPECT_EQ(serial.ops, 6u * 3 * 8);  // cross ops count once, at home
  EXPECT_EQ(serial.deadlock_cycles, 0u);
  EXPECT_EQ(serial, run_with(cfg, 2));
  EXPECT_EQ(serial, run_with(cfg, 3));
  EXPECT_EQ(serial, run_with(cfg, 6));
  EXPECT_EQ(serial, run_with(cfg, 6, 4));  // parallel workers
}

TEST(ManyLocks, UncoupledConfigPostsNoCrossEvents) {
  // Without cross-tree ops the forest keeps its shards and no op spans
  // two trees; a coupled forest collapses to one simulator.
  ManyLocksConfig cfg = small_config();
  cfg.shards = 3;
  ManyLocksCluster cluster(cfg);
  cluster.run();
  EXPECT_EQ(cluster.sharded().shard_count(), 3u);
  EXPECT_EQ(cluster.result().cross_tree_ops, 0u);
  cfg.cross_tree_pct = 25.0;
  ManyLocksCluster coupled(cfg);
  coupled.run();
  EXPECT_EQ(coupled.sharded().shard_count(), 1u);
  EXPECT_GT(coupled.result().cross_tree_ops, 0u);
}

TEST(ManyLocks, UncoupledRunDrainsTreesWithNoRounds) {
  // With no cross-tree ops every shard drains its trees one at a time;
  // the result must not depend on the shard or worker layout. SeedRegression.ForestCounts pins the same forest's
  // counts across builds.
  const ManyLocksResult serial = run_with(small_config(), 1, 1);
  for (const std::size_t shards : {1u, 3u, 6u}) {
    for (const std::size_t threads : {1u, 2u, 8u}) {
      ManyLocksConfig cfg = small_config();
      cfg.shards = shards;
      cfg.run_threads = threads;
      ManyLocksCluster cluster(cfg);
      cluster.run();
      EXPECT_EQ(cluster.sharded().shard_count(), shards);
      EXPECT_EQ(cluster.result(), serial)
          << shards << " shards, " << threads << " threads";
    }
  }
}

TEST(ManyLocks, ClusteredUncoupledForestIsShardAndThreadInvariant) {
  // Two latency classes per tree (1 ms intra-cluster, the flat mean
  // between clusters) and no coupling: the per-tree drain must still
  // reproduce the serial result at any shard and worker count.
  ManyLocksConfig cfg = small_config();
  cfg.clusters = 2;
  cfg.intra_latency_mean = usec(1000);
  const ManyLocksResult serial = run_with(cfg, 1);
  EXPECT_EQ(serial.ops, 6u * 3 * 8);
  EXPECT_EQ(serial.cross_tree_ops, 0u);
  EXPECT_EQ(serial, run_with(cfg, 3));
  EXPECT_EQ(serial, run_with(cfg, 3, 2));
  EXPECT_EQ(serial, run_with(cfg, 6, 8));
}

namespace {

/// High-contention two-tree config: tiny page space, heavy skew, every
/// op spanning both trees — the regime where acquisition order decides
/// between completion and deadlock.
ManyLocksConfig contended_cross_config() {
  ManyLocksConfig cfg;
  cfg.nodes = 4;
  cfg.trees = 2;
  cfg.levels = 4;
  cfg.spec.lock_count = 64;
  cfg.spec.zipf_theta = 1.2;
  cfg.spec.ops_per_node = 20;
  cfg.spec.seed = 1;
  cfg.cross_tree_pct = 100.0;
  return cfg;
}

}  // namespace

TEST(ManyLocks, OrderedCrossTreeOpsNeverDeadlock) {
  // Ordered mode acquires trees in tree-id order — a total order over
  // resources, so even 100% cross traffic on two tiny trees completes.
  const ManyLocksResult r = run_with(contended_cross_config(), 2);
  EXPECT_EQ(r.ops, 2u * 4 * 20);
  EXPECT_EQ(r.cross_tree_ops, r.ops);
  EXPECT_EQ(r.deadlock_cycles, 0u);
}

TEST(ManyLocks, UnorderedCrossTreeDeadlockIsDetectedNotHung) {
  // Home-tree-first acquisition is a textbook ordering bug: opposite
  // transactions hold-and-wait across the trees. The run must DRAIN (the
  // simulator's queue empties once every live op is stuck), diagnose the
  // cycle in the forest-wide wait-for graph, and report it instead of
  // throwing.
  ManyLocksConfig cfg = contended_cross_config();
  cfg.cross_tree_unordered = true;
  ManyLocksCluster cluster(cfg);
  cluster.run();  // must not throw and must not hang
  const ManyLocksResult r = cluster.result();
  EXPECT_GE(r.deadlock_cycles, 1u);
  EXPECT_LT(r.ops, 2u * 4 * 20);  // the deadlocked ops never finished
  const auto cycle = cluster.wait_graph().find_cycle();
  ASSERT_TRUE(cycle.has_value());
  EXPECT_GE(cycle->size(), 3u);
}

TEST(ManyLocks, UnorderedDeadlockRunIsStillShardInvariant) {
  ManyLocksConfig cfg = contended_cross_config();
  cfg.cross_tree_unordered = true;
  const ManyLocksResult serial = run_with(cfg, 1);
  EXPECT_EQ(serial, run_with(cfg, 2));
  EXPECT_EQ(serial, run_with(cfg, 2, 2));
}

TEST(ManyLocks, ClusteredCoupledForestStaysDeterministic) {
  // Two latency classes (intra-cluster hops far below the flat mean) plus
  // cross-tree coupling: the one-simulator run must not depend on the
  // shard or worker settings either.
  ManyLocksConfig cfg = small_config();
  cfg.clusters = 2;
  cfg.intra_latency_mean = usec(1000);
  cfg.cross_tree_pct = 20.0;
  const ManyLocksResult serial = run_with(cfg, 1);
  EXPECT_EQ(serial.ops, 6u * 3 * 8);
  EXPECT_GT(serial.cross_tree_ops, 0u);
  EXPECT_EQ(serial, run_with(cfg, 3));
  EXPECT_EQ(serial, run_with(cfg, 6, 4));
}

TEST(ManyLocks, RejectsBadCrossTreeConfig) {
  ManyLocksConfig cfg = small_config();
  cfg.cross_tree_pct = 101.0;
  EXPECT_THROW(ManyLocksCluster{cfg}, std::invalid_argument);
  cfg = small_config();
  cfg.cross_tree_pct = -1.0;
  EXPECT_THROW(ManyLocksCluster{cfg}, std::invalid_argument);
  cfg = small_config();
  cfg.trees = 1;
  cfg.spec.lock_count = 200;
  cfg.cross_tree_pct = 10.0;
  EXPECT_THROW(ManyLocksCluster{cfg}, std::invalid_argument);
}
