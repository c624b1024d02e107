// Multi-level hierarchy and lock-plan execution tests: lock-plan computation,
// intent-mode selection, and end-to-end 3-level runs on the simulator
// with the safety probe.
#include <gtest/gtest.h>

#include <memory>

#include "harness/sim_executor.hpp"
#include "lockmgr/hierarchy.hpp"
#include "lockmgr/session_mux.hpp"
#include "sim/simnet.hpp"
#include "sim/simulator.hpp"

namespace hlock::lockmgr {
namespace {

Hierarchy three_level() {
  Hierarchy h("db");
  const ResourceId t0 = h.add_child(h.root(), "table0");
  const ResourceId t1 = h.add_child(h.root(), "table1");
  h.add_child(t0, "row0");
  h.add_child(t0, "row1");
  h.add_child(t1, "row2");
  return h;
}

TEST(Hierarchy, StructureAndNames) {
  const Hierarchy h = three_level();
  EXPECT_EQ(h.resource_count(), 6u);
  EXPECT_EQ(h.name_of(h.root()), "db");
  EXPECT_EQ(h.depth_of(h.root()), 0u);
  EXPECT_EQ(h.depth_of(ResourceId{3}), 2u);  // row0
  EXPECT_EQ(h.parent_of(ResourceId{3}), ResourceId{1});
  EXPECT_FALSE(h.parent_of(h.root()).valid());
  EXPECT_EQ(h.children_of(h.root()).size(), 2u);
  EXPECT_EQ(h.children_of(ResourceId{1}).size(), 2u);
  EXPECT_THROW(h.name_of(ResourceId{9}), std::out_of_range);
}

TEST(Hierarchy, PathToLeaf) {
  const Hierarchy h = three_level();
  const auto path = h.path_to(ResourceId{5});  // row2
  ASSERT_EQ(path.size(), 3u);
  EXPECT_EQ(path[0], h.root());
  EXPECT_EQ(path[1], ResourceId{2});  // table1
  EXPECT_EQ(path[2], ResourceId{5});
}

TEST(Hierarchy, IntentModeSelection) {
  EXPECT_EQ(intent_for(Mode::kR), Mode::kIR);
  EXPECT_EQ(intent_for(Mode::kIR), Mode::kIR);
  EXPECT_EQ(intent_for(Mode::kW), Mode::kIW);
  EXPECT_EQ(intent_for(Mode::kIW), Mode::kIW);
  EXPECT_EQ(intent_for(Mode::kU), Mode::kIW);
  EXPECT_THROW(intent_for(Mode::kNone), std::invalid_argument);
}

TEST(Hierarchy, LockPlansForEveryLevel) {
  const Hierarchy h = three_level();
  // Leaf write: IW on db, IW on table, W on row.
  const auto leaf = lock_plan(h, ResourceId{3}, Mode::kW);
  ASSERT_EQ(leaf.size(), 3u);
  EXPECT_EQ(leaf[0], (PlanStep{LockId{0}, Mode::kIW}));
  EXPECT_EQ(leaf[1], (PlanStep{LockId{1}, Mode::kIW}));
  EXPECT_EQ(leaf[2], (PlanStep{LockId{3}, Mode::kW}));
  // Table scan: IR on db, R on table.
  const auto scan = lock_plan(h, ResourceId{2}, Mode::kR);
  ASSERT_EQ(scan.size(), 2u);
  EXPECT_EQ(scan[0], (PlanStep{LockId{0}, Mode::kIR}));
  EXPECT_EQ(scan[1], (PlanStep{LockId{2}, Mode::kR}));
  // Whole-database op: single step.
  const auto whole = lock_plan(h, h.root(), Mode::kU);
  ASSERT_EQ(whole.size(), 1u);
  EXPECT_EQ(whole[0], (PlanStep{LockId{0}, Mode::kU}));
}

TEST(Hierarchy, PlanCompatibilityAcrossDisjointSubtrees) {
  // The whole point of intents: writers on rows of DIFFERENT tables must
  // be pairwise compatible at every shared level.
  const Hierarchy h = three_level();
  const auto w0 = lock_plan(h, ResourceId{3}, Mode::kW);  // table0/row0
  const auto w2 = lock_plan(h, ResourceId{5}, Mode::kW);  // table1/row2
  for (const auto& a : w0) {
    for (const auto& b : w2) {
      if (a.lock != b.lock) continue;
      EXPECT_TRUE(compatible(a.mode, b.mode))
          << a.mode << " vs " << b.mode << " on lock " << a.lock;
    }
  }
  // Same-table writers conflict exactly at the row (disjoint rows: no
  // conflict anywhere).
  const auto w1 = lock_plan(h, ResourceId{4}, Mode::kW);  // table0/row1
  for (const auto& a : w0) {
    for (const auto& b : w1) {
      if (a.lock != b.lock) continue;
      EXPECT_TRUE(compatible(a.mode, b.mode));
    }
  }
}

// ---------------------------------------------------------------------------

struct PlanFixture {
  PlanFixture()
      : net(sim, std::make_unique<sim::UniformLatency>(msec(10)), Rng(4)),
        exec(sim),
        hierarchy(three_level()) {
    for (std::uint32_t i = 0; i < 3; ++i) {
      const NodeId id{i};
      transports.push_back(std::make_unique<sim::SimTransport>(net, id));
      nodes.push_back(
          std::make_unique<core::HlsNode>(id, *transports.back()));
      for (std::uint32_t l = 0; l < hierarchy.resource_count(); ++l) {
        nodes.back()->add_lock(LockId{l}, NodeId{0});
      }
      net.register_node(id, [n = nodes.back().get()](const Message& m) {
        n->handle(m);
      });
    }
    for (auto& n : nodes) {
      sessions.push_back(std::make_unique<SessionMux>(*n, exec, 1));
    }
  }

  sim::Simulator sim;
  sim::SimNetwork net;
  harness::SimExecutor exec;
  Hierarchy hierarchy;
  std::vector<std::unique_ptr<sim::SimTransport>> transports;
  std::vector<std::unique_ptr<core::HlsNode>> nodes;
  std::vector<std::unique_ptr<SessionMux>> sessions;
};

void run_plan(SessionMux& mux, std::vector<PlanStep> steps, Duration cs,
              DoneFn done) {
  mux.run(0, Plan{std::move(steps)}, Op{.cs = cs}, std::move(done));
}

TEST(SessionMuxPlans, ExecutesThreeLevelPlan) {
  PlanFixture f;
  bool done = false;
  f.sim.schedule_at(0, [&] {
    run_plan(*f.sessions[1], lock_plan(f.hierarchy, ResourceId{3}, Mode::kW),
             msec(5), [&](const OpStats& r) {
               EXPECT_EQ(r.lock_requests, 3u);
               EXPECT_GT(r.acquire_latency, 0);
               done = true;
             });
  });
  f.sim.run_all();
  EXPECT_TRUE(done);
  // All released.
  for (auto& n : f.nodes) {
    for (std::uint32_t l = 0; l < f.hierarchy.resource_count(); ++l) {
      EXPECT_TRUE(n->engine(LockId{l}).holds().empty());
    }
  }
}

TEST(SessionMuxPlans, DisjointRowWritersOverlap) {
  PlanFixture f;
  TimePoint done1 = 0, done2 = 0;
  f.sim.schedule_at(0, [&] {
    run_plan(*f.sessions[1], lock_plan(f.hierarchy, ResourceId{3}, Mode::kW),
             msec(200), [&](const OpStats&) { done1 = f.sim.now(); });
  });
  f.sim.schedule_at(0, [&] {
    run_plan(*f.sessions[2], lock_plan(f.hierarchy, ResourceId{5}, Mode::kW),
             msec(200), [&](const OpStats&) { done2 = f.sim.now(); });
  });
  f.sim.run_all();
  ASSERT_GT(done1, 0);
  ASSERT_GT(done2, 0);
  // Concurrent: the 200 ms critical sections overlapped (IW is
  // compatible with IW at db level; rows are disjoint) — end times
  // within one CS of each other rather than serialized.
  EXPECT_LT(std::max(done1, done2), msec(200) * 2);
}

TEST(SessionMuxPlans, SameRowWritersSerialize) {
  PlanFixture f;
  TimePoint done1 = 0, done2 = 0;
  for (const std::size_t who : {std::size_t{1}, std::size_t{2}}) {
    f.sim.schedule_at(0, [&, who] {
      run_plan(*f.sessions[who],
               lock_plan(f.hierarchy, ResourceId{3}, Mode::kW), msec(200),
               [&, who](const OpStats&) {
                 (who == 1 ? done1 : done2) = f.sim.now();
               });
    });
  }
  f.sim.run_all();
  ASSERT_GT(done1, 0);
  ASSERT_GT(done2, 0);
  EXPECT_GE(std::max(done1, done2), msec(400));  // serialized
}

TEST(SessionMuxPlans, RejectsBadUse) {
  PlanFixture f;
  const auto plan = lock_plan(f.hierarchy, ResourceId{1}, Mode::kR);
  f.sim.schedule_at(0, [&] {
    EXPECT_THROW(run_plan(*f.sessions[0], {}, msec(1), nullptr),
                 std::invalid_argument);
    run_plan(*f.sessions[0], plan, msec(5), nullptr);
    EXPECT_THROW(run_plan(*f.sessions[0], plan, msec(5), nullptr),
                 std::logic_error);
    // release() belongs to a fully acquired acquire(): not to an idle
    // session, a run(), or a plan still waiting on a remote grant.
    EXPECT_THROW(f.sessions[1]->release(0), std::logic_error);
    EXPECT_THROW(f.sessions[0]->release(0), std::logic_error);
    f.sessions[2]->acquire(0, plan, nullptr);
    EXPECT_THROW(f.sessions[2]->release(0), std::logic_error);
  });
  f.sim.run_all();
  f.sessions[2]->release(0);
  EXPECT_FALSE(f.sessions[2]->busy(0));
}

}  // namespace
}  // namespace hlock::lockmgr
