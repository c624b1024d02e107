// SessionMux tests over the simulator: each op kind drives the right lock
// sequence under each protocol's plan, the stats are accurate, and the
// local upgrade gate admits sessions in FIFO order.
#include <gtest/gtest.h>

#include <vector>

#include "harness/cluster.hpp"
#include "harness/invariants.hpp"

namespace hlock::harness {
namespace {

/// Run one specific op on node `who` of a small HLS cluster and return its
/// stats; the cluster's generators are bypassed.
lockmgr::OpStats run_single_op(lockmgr::Op op, std::size_t nodes = 3,
                               std::size_t who = 1) {
  ClusterConfig config;
  config.nodes = nodes;
  config.spec.ops_per_node = 0;  // no generated traffic
  HlsCluster cluster(config);
  install_safety_probe(cluster);

  lockmgr::OpStats result;
  bool done = false;
  SimExecutor exec(cluster.simulator());
  lockmgr::SessionMux mux(cluster.node(who), cluster.layout(), exec, 1);
  cluster.simulator().schedule_at(0, [&] {
    mux.start(0, op, [&](const lockmgr::OpStats& stats) {
      result = stats;
      done = true;
    });
  });
  cluster.simulator().run_all();
  EXPECT_TRUE(done);
  EXPECT_EQ(check_quiescent(cluster), "");
  return result;
}

TEST(SessionMux, TableReadIsOneLockRequest) {
  lockmgr::Op op;
  op.kind = lockmgr::OpKind::kTableRead;
  op.cs = msec(5);
  const auto stats = run_single_op(op);
  EXPECT_EQ(stats.lock_requests, 1u);
  EXPECT_GT(stats.acquire_latency, 0);
}

TEST(SessionMux, EntryOpsTakeIntentPlusLeaf) {
  for (const auto kind :
       {lockmgr::OpKind::kEntryRead, lockmgr::OpKind::kEntryWrite}) {
    lockmgr::Op op;
    op.kind = kind;
    op.entry = 2;
    op.cs = msec(5);
    const auto stats = run_single_op(op);
    EXPECT_EQ(stats.lock_requests, 2u) << to_string(kind);
  }
}

TEST(SessionMux, UpgradeOpCompletesBothPhases) {
  lockmgr::Op op;
  op.kind = lockmgr::OpKind::kTableUpgrade;
  op.cs = msec(10);
  const auto stats = run_single_op(op);
  EXPECT_EQ(stats.lock_requests, 1u);
}

TEST(SessionMux, RejectsConcurrentOps) {
  ClusterConfig config;
  config.nodes = 1;
  config.spec.ops_per_node = 0;
  HlsCluster cluster(config);
  SimExecutor exec(cluster.simulator());
  lockmgr::SessionMux mux(cluster.node(0), cluster.layout(), exec, 1);
  lockmgr::Op op;
  op.kind = lockmgr::OpKind::kTableRead;
  op.cs = msec(5);
  cluster.simulator().schedule_at(0, [&] {
    mux.start(0, op, [](const lockmgr::OpStats&) {});
    EXPECT_THROW(mux.start(0, op, [](const lockmgr::OpStats&) {}),
                 std::logic_error);
  });
  cluster.simulator().run_all();
}

// ---------------------------------------------------------------------------
// The local upgrade gate. Node 0 roots the table lock, so every table-level
// grant is local and synchronous: without the gate, an IW issued while our
// U is held backlogs in the engine's single local pending slot, and the
// later upgrade() queues behind it forever.

struct GateRun {
  std::vector<std::uint32_t> finished;  ///< session ids in completion order
  std::vector<lockmgr::OpStats> stats;  ///< indexed by session id
};

GateRun run_gated(const std::vector<lockmgr::OpKind>& kinds) {
  ClusterConfig config;
  config.nodes = 2;
  config.spec.ops_per_node = 0;
  HlsCluster cluster(config);
  install_safety_probe(cluster);
  SimExecutor exec(cluster.simulator());
  const auto sessions = static_cast<std::uint32_t>(kinds.size());
  lockmgr::SessionMux mux(cluster.node(0), cluster.layout(), exec, sessions);

  GateRun out;
  out.stats.resize(kinds.size());
  cluster.simulator().schedule_at(0, [&] {
    for (std::uint32_t sid = 0; sid < sessions; ++sid) {
      lockmgr::Op op;
      op.kind = kinds[sid];
      op.entry = 0;  // homed at node 0: local too
      op.cs = msec(20);
      mux.start(sid, op, [&, sid](const lockmgr::OpStats& s) {
        out.finished.push_back(sid);
        out.stats[sid] = s;
      });
    }
    EXPECT_EQ(mux.active(), sessions);
    EXPECT_EQ(mux.completed(), 0u);
  });
  cluster.simulator().run_all();
  EXPECT_EQ(mux.active(), 0u);
  EXPECT_EQ(mux.completed(), sessions);
  EXPECT_EQ(check_quiescent(cluster), "");
  return out;
}

TEST(SessionMux, UpgradeGateParksEntryWriteBehindUpgrade) {
  const GateRun r = run_gated(
      {lockmgr::OpKind::kTableUpgrade, lockmgr::OpKind::kEntryWrite});
  ASSERT_EQ(r.finished, (std::vector<std::uint32_t>{0, 1}));
  // The entry write was not issued until the upgrade op released: it
  // waited out the upgrade op's whole critical section.
  EXPECT_EQ(r.stats[0].acquire_latency, 0);
  EXPECT_GE(r.stats[1].acquire_latency, msec(20));
  EXPECT_EQ(r.stats[1].lock_requests, 2u);
}

TEST(SessionMux, UpgradeGateAdmitsInFifoOrder) {
  // The upgrade waits for the admitted entry write; the entry read behind
  // it is compatible with that write but still waits its turn, so a
  // stream of ops cannot starve the upgrade.
  const GateRun r =
      run_gated({lockmgr::OpKind::kEntryWrite, lockmgr::OpKind::kTableUpgrade,
                 lockmgr::OpKind::kEntryRead});
  ASSERT_EQ(r.finished, (std::vector<std::uint32_t>{0, 1, 2}));
  EXPECT_GE(r.stats[1].acquire_latency, msec(20));
  EXPECT_GE(r.stats[2].acquire_latency, msec(40));
}

// ---------------------------------------------------------------------------
// The Naimi baselines run the same executor with their own plans.

/// Run one op on node `who` of a same-work Naimi cluster.
lockmgr::OpStats run_same_work_op(ClusterConfig config, std::size_t who,
                                  const lockmgr::Op& op) {
  config.spec.ops_per_node = 0;
  NaimiCluster cluster(config, /*pure=*/false);
  SimExecutor exec(cluster.simulator());
  const lockmgr::ResourceLayout layout(
      static_cast<std::uint32_t>(config.nodes) * config.spec.entries_per_node);
  lockmgr::NaimiSessionMux mux(
      cluster.node(who), exec, 1,
      [&](const lockmgr::Op& o, lockmgr::Plan& out) {
        lockmgr::naimi_same_work_plan(layout, o, out);
      });
  lockmgr::OpStats result;
  bool done = false;
  cluster.simulator().schedule_at(0, [&] {
    mux.start(0, op, [&](const lockmgr::OpStats& s) {
      result = s;
      done = true;
    });
  });
  cluster.simulator().run_all();
  EXPECT_TRUE(done);
  return result;
}

TEST(NaimiSessions, OrderedTableOpTakesEveryEntryLock) {
  ClusterConfig config;
  config.nodes = 4;
  config.spec.entries_per_node = 2;  // 8 entries
  lockmgr::Op op;
  op.kind = lockmgr::OpKind::kTableWrite;
  op.cs = msec(5);
  const auto stats = run_same_work_op(config, 1, op);
  EXPECT_EQ(stats.lock_requests, 8u);
}

TEST(NaimiSessions, OrderedEntryOpTakesOneLock) {
  ClusterConfig config;
  config.nodes = 4;
  lockmgr::Op op;
  op.kind = lockmgr::OpKind::kEntryRead;
  op.entry = 3;
  op.cs = msec(5);
  const auto stats = run_same_work_op(config, 2, op);
  EXPECT_EQ(stats.lock_requests, 1u);
}

TEST(NaimiSessions, PureAlwaysOneLock) {
  ClusterConfig config;
  config.nodes = 3;
  config.spec.ops_per_node = 0;
  NaimiCluster cluster(config, /*pure=*/true);
  SimExecutor exec(cluster.simulator());
  lockmgr::NaimiSessionMux mux(
      cluster.node(1), exec, 1, [](const lockmgr::Op&, lockmgr::Plan& out) {
        lockmgr::naimi_pure_plan(LockId{0}, out);
      });
  for (const auto kind :
       {lockmgr::OpKind::kTableWrite, lockmgr::OpKind::kEntryRead}) {
    lockmgr::Op op;
    op.kind = kind;
    op.cs = msec(2);
    lockmgr::OpStats result;
    bool done = false;
    cluster.simulator().schedule_after(0, [&] {
      mux.start(0, op, [&](const lockmgr::OpStats& s) {
        result = s;
        done = true;
      });
    });
    cluster.simulator().run_all();
    EXPECT_TRUE(done);
    EXPECT_EQ(result.lock_requests, 1u);
  }
}

TEST(NaimiSessions, RejectsUpgradePlans) {
  ClusterConfig config;
  config.nodes = 2;
  config.spec.ops_per_node = 0;
  NaimiCluster cluster(config, /*pure=*/true);
  SimExecutor exec(cluster.simulator());
  lockmgr::NaimiSessionMux mux(cluster.node(0), exec, 1);
  lockmgr::Plan plan;
  lockmgr::naimi_pure_plan(LockId{0}, plan);
  plan.upgrade = true;
  EXPECT_THROW(mux.run(0, plan, lockmgr::Op{}, nullptr),
               std::invalid_argument);
  EXPECT_THROW(mux.start(0, lockmgr::Op{}, nullptr), std::logic_error);
}

}  // namespace
}  // namespace hlock::harness
