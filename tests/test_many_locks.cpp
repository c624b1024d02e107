// ShardedSimulator and the many-lock forest harness: the load-bearing
// property is that results are bitwise-invariant to the shard count and
// the thread count (the CI oracle cmp depends on it), plus the lazy
// engine materialization that keeps 10^5-lock forests cheap.
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

TEST(ShardedSimulator, SingleShardMatchesPlainRunAll) {
  // The same event program, run windowed (lookahead rounds) and plain.
  std::vector<int> windowed;
  std::vector<int> plain;
  auto program = [](sim::Simulator& s, std::vector<int>& out) {
    for (int i = 0; i < 5; ++i) {
      s.schedule_at(i * 100, [&out, &s, i] {
        out.push_back(i);
        s.schedule_after(50, [&out, i] { out.push_back(100 + i); });
      });
    }
  };
  sim::ShardedSimulator sharded(1);
  program(sharded.shard(0), windowed);
  sharded.run_all(/*lookahead=*/30, /*threads=*/1);
  sim::Simulator reference;
  program(reference, plain);
  reference.run_all();
  EXPECT_EQ(windowed, plain);
  EXPECT_EQ(sharded.events_processed(), reference.events_processed());
}

TEST(ShardedSimulator, ShardsAdvanceIndependently) {
  sim::ShardedSimulator sharded(3);
  std::vector<int> order;
  sharded.shard(0).schedule_at(10, [&] { order.push_back(0); });
  sharded.shard(1).schedule_at(20, [&] { order.push_back(1); });
  sharded.shard(2).schedule_at(5, [&] { order.push_back(2); });
  sharded.run_all(/*lookahead=*/1, /*threads=*/1);
  // Serial path visits shards in index order within a round; with a tight
  // lookahead the global windows order cross-shard work by virtual time.
  EXPECT_EQ(order, (std::vector<int>{2, 0, 1}));
  EXPECT_EQ(sharded.events_processed(), 3u);
  EXPECT_GE(sharded.rounds(), 3u);
}

TEST(ShardedSimulator, ParallelRunExecutesEverything) {
  sim::ShardedSimulator sharded(4);
  std::atomic<int> ran{0};
  for (std::size_t s = 0; s < 4; ++s) {
    for (int i = 0; i < 50; ++i) {
      sharded.shard(s).schedule_at(i * 10, [&sharded, &ran, s] {
        ran.fetch_add(1, std::memory_order_relaxed);
        sharded.shard(s).schedule_after(5, [&ran] {
          ran.fetch_add(1, std::memory_order_relaxed);
        });
      });
    }
  }
  sharded.run_all(/*lookahead=*/25, /*threads=*/4);
  EXPECT_EQ(ran.load(), 400);
  EXPECT_EQ(sharded.events_processed(), 400u);
}

TEST(ShardedSimulator, EventCapThrows) {
  sim::ShardedSimulator sharded(2);
  // Self-rescheduling event: only the cap stops it.
  std::function<void()> again = [&] {
    sharded.shard(0).schedule_after(1, again);
  };
  sharded.shard(0).schedule_at(0, again);
  EXPECT_THROW(sharded.run_all(10, 1, /*max_events=*/1000),
               std::runtime_error);
}

TEST(ShardedSimulator, CrossPostOrdersByKeyNotInsertionTime) {
  // The same three events — two posted cross-shard (keys 2 and 1) and one
  // scheduled locally — all landing at t=100 on shard 1. Locals (key 0)
  // run first, then keyed events by key, regardless of the fact that the
  // cross events ride a mailbox and are inserted at a later barrier.
  sim::ShardedSimulator sharded(2);
  std::vector<int> order;
  sharded.shard(1).schedule_at(100, [&] { order.push_back(0); });
  sharded.shard(0).schedule_at(10, [&] {
    sharded.post(0, 1, 100, /*key=*/2, [&] { order.push_back(2); });
    sharded.post(0, 1, 100, /*key=*/1, [&] { order.push_back(1); });
  });
  sharded.run_all(/*lookahead=*/5, /*threads=*/1);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(sharded.mailbox_events(), 2u);
  EXPECT_EQ(sharded.cross_posts(), 2u);
}

TEST(ShardedSimulator, SameShardPostMatchesMailboxPost) {
  // A post whose source and destination share a shard inserts directly;
  // the execution order must be identical to the cross-shard run above.
  sim::ShardedSimulator sharded(1);
  std::vector<int> order;
  sharded.shard(0).schedule_at(100, [&] { order.push_back(0); });
  sharded.shard(0).schedule_at(10, [&] {
    sharded.post(0, 0, 100, /*key=*/2, [&] { order.push_back(2); });
    sharded.post(0, 0, 100, /*key=*/1, [&] { order.push_back(1); });
  });
  sharded.run_all(/*lookahead=*/5, /*threads=*/1);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(sharded.mailbox_events(), 0u);  // direct insertion
  EXPECT_EQ(sharded.cross_posts(), 2u);
}

TEST(ShardedSimulator, ArrivalInsideExecutedHorizonThrows) {
  // Shard 1 executes up to t=100 in the first window (lookahead 100);
  // shard 0 posts an arrival at t=60, behind shard 1's last executed
  // event — a causality violation the drain must refuse to paper over.
  sim::ShardedSimulator sharded(2);
  sharded.shard(1).schedule_at(0, [] {});
  sharded.shard(1).schedule_at(100, [] {});
  sharded.shard(0).schedule_at(50, [&] {
    sharded.post(0, 1, 60, /*key=*/1, [] {});
  });
  EXPECT_THROW(sharded.run_all(/*lookahead=*/100, /*threads=*/1),
               std::runtime_error);
}

TEST(ShardedSimulator, IdleOvershootRevalidatesTheWindow) {
  // Shard 1's clock coasts to the horizon (t=100) with nothing executed
  // past t=0; an arrival at t=60 is then sound — the drain rolls the
  // idle clock back, counts a revalidation, and the event runs.
  sim::ShardedSimulator sharded(2);
  bool ran = false;
  sharded.shard(1).schedule_at(0, [] {});
  sharded.shard(0).schedule_at(50, [&] {
    sharded.post(0, 1, 60, /*key=*/1, [&] { ran = true; });
  });
  sharded.run_all(/*lookahead=*/100, /*threads=*/1);
  EXPECT_TRUE(ran);
  EXPECT_EQ(sharded.window_revalidations(), 1u);
}

TEST(ShardedSimulator, ZeroLookaheadLivelockStopsAtTheEventBudget) {
  // A same-time rescheduling loop never leaves its window, so only the
  // per-round budget (plumbed into run_until) can stop it. Without that
  // plumbing this test hangs instead of throwing.
  sim::ShardedSimulator sharded(2);
  std::function<void()> again = [&] {
    sharded.shard(0).schedule_after(0, again);
  };
  sharded.shard(0).schedule_at(5, again);
  EXPECT_THROW(sharded.run_all(/*lookahead=*/0, /*threads=*/1,
                               /*max_events=*/1000),
               std::runtime_error);
}

TEST(ShardedSimulator, DrainEachVisitsEveryShardOnceWithNoRounds) {
  // Each shard drains on its own: every shard index is handed out exactly
  // once, at any worker count, and no window round runs. A windowed run
  // first leaves rounds() nonzero, so the reset is what is checked.
  for (const std::size_t threads : {1u, 2u, 8u}) {
    sim::ShardedSimulator sharded(5);
    sharded.shard(0).schedule_at(1, [] {});
    sharded.run_all(/*lookahead=*/1, /*threads=*/1);
    ASSERT_GT(sharded.rounds(), 0u);
    std::vector<std::atomic<int>> visits(5);
    sharded.drain_each(threads, [&](std::size_t shard) {
      visits[shard].fetch_add(1, std::memory_order_relaxed);
      sharded.shard(shard).schedule_at(10, [] {});
      sharded.shard(shard).run_all();
    });
    for (const auto& v : visits) EXPECT_EQ(v.load(), 1);
    EXPECT_EQ(sharded.events_processed(), 1u + 5u);
    EXPECT_EQ(sharded.rounds(), 0u);
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

// --- multi-tree transactions (coupled shards) -------------------------

TEST(ManyLocks, CoupledResultInvariantToShardAndThreadCount) {
  // With cross-tree ops the trees are no longer disjoint: invariance now
  // rests on the keyed (t, key) event order and the conservative window,
  // not on per-tree isolation. This is the serial oracle property the CI
  // coupled cmp step checks at the binary level.
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

TEST(ManyLocks, CoupledRunsProduceCrossShardTraffic) {
  ManyLocksConfig cfg = small_config();
  cfg.cross_tree_pct = 25.0;
  cfg.shards = 3;
  ManyLocksCluster cluster(cfg);
  cluster.run();
  // Legs, replies and releases between trees on different shards must
  // ride the mailboxes — the lookahead barrier is load-bearing here.
  EXPECT_GT(cluster.sharded().cross_posts(), 0u);
  EXPECT_GT(cluster.sharded().mailbox_events(), 0u);
}

TEST(ManyLocks, UncoupledConfigPostsNoCrossEvents) {
  ManyLocksConfig cfg = small_config();
  cfg.shards = 3;
  ManyLocksCluster cluster(cfg);
  cluster.run();
  EXPECT_EQ(cluster.sharded().cross_posts(), 0u);
  EXPECT_EQ(cluster.sharded().mailbox_events(), 0u);
}

TEST(ManyLocks, UncoupledRunDrainsTreesWithNoRounds) {
  // With no cross-tree ops every shard drains its trees one at a time,
  // with no conservative window; the result must not depend on the shard
  // or worker layout. SeedRegression.ForestCounts pins the same forest's
  // counts across builds.
  const ManyLocksResult serial = run_with(small_config(), 1, 1);
  for (const std::size_t shards : {1u, 3u, 6u}) {
    for (const std::size_t threads : {1u, 2u, 8u}) {
      ManyLocksConfig cfg = small_config();
      cfg.shards = shards;
      cfg.run_threads = threads;
      ManyLocksCluster cluster(cfg);
      cluster.run();
      EXPECT_EQ(cluster.rounds(), 0u) << shards << " shards";
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
  // transactions hold-and-wait across the trees. The run must DRAIN
  // (conservative windows keep advancing), diagnose the cycle in the
  // forest-wide wait-for graph, and report it instead of throwing.
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

TEST(ManyLocks, LookaheadDerivedFromModelsNotHardcodedMean) {
  // Flat forest: floor is uniform's mean/2, minus one for the inclusive
  // horizon. Clustered forest: the intra-cluster floor governs — the old
  // hard-coded net_latency_mean / 2 window would overshoot it 150-fold
  // and tear the determinism guarantee (arrivals inside executed
  // history).
  ManyLocksConfig flat = small_config();
  {
    ManyLocksCluster cluster(flat);
    EXPECT_EQ(cluster.lookahead(), flat.spec.net_latency_mean / 2 - 1);
  }
  ManyLocksConfig clustered = small_config();
  clustered.clusters = 2;
  clustered.intra_latency_mean = usec(1000);
  {
    ManyLocksCluster cluster(clustered);
    EXPECT_EQ(cluster.lookahead(), usec(1000) / 2 - 1);
    EXPECT_LT(cluster.lookahead(), clustered.spec.net_latency_mean / 2);
  }
}

TEST(ManyLocks, ClusteredCoupledForestStaysDeterministic) {
  // The regression the derived lookahead exists for: clustered topology
  // (intra floor far below the flat mean) plus cross-shard coupling.
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
