// Crash-recovery (view change) tests: an external membership service
// declares nodes dead and drives begin_recovery on every survivor; the
// tree is rebuilt from authoritative survivor state, stale-view traffic
// is fenced, and all surviving work completes.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <vector>

#include "common/cluster_map.hpp"
#include "core/hls_engine.hpp"
#include "test_util.hpp"

namespace hlock::core {
namespace {

NodeId id_of(char c) { return NodeId{static_cast<std::uint32_t>(c - 'A')}; }

struct Net {
  Net() = default;
  Net(EngineOptions o, const ClusterMap* map) : opts(o), clusters(map) {}

  HlsEngine& add(char name, char root) {
    auto engine = factory.make(
        id_of(name), id_of(root), bus.port(id_of(name)), opts,
        [this, name](RequestId id, Mode mode) {
          acquired[name].emplace_back(id, mode);
        },
        [this, name](RequestId id) { upgraded[name].push_back(id); },
        NodeId::invalid(), clusters);
    HlsEngine* raw = engine.get();
    bus.register_handler(id_of(name),
                         [raw](const Message& m) { raw->handle(m); });
    engines[name] = std::move(engine);
    return *raw;
  }
  HlsEngine& operator[](char c) { return *engines.at(c); }
  void pump() { bus.deliver_all(); }

  /// Simulate a crash: the node stops processing anything.
  void crash(char name) {
    bus.register_handler(id_of(name), [](const Message&) {});
    crashed.insert(name);
  }

  /// View service: recover every survivor with `new_root` as the root.
  void recover(std::uint32_t view, char new_root) {
    std::set<NodeId> survivors;
    for (auto& [name, engine] : engines) {
      if (!crashed.count(name)) survivors.insert(id_of(name));
    }
    for (auto& [name, engine] : engines) {
      if (crashed.count(name)) continue;
      engine->begin_recovery(view, id_of(new_root), survivors);
    }
    pump();
  }

  testing::TestBus bus;
  EngineOptions opts{};
  const ClusterMap* clusters{nullptr};
  testing::EngineFactory factory;
  std::map<char, std::unique_ptr<HlsEngine>> engines;
  std::map<char, std::vector<std::pair<RequestId, Mode>>> acquired;
  std::map<char, std::vector<RequestId>> upgraded;
  std::set<char> crashed;
};

TEST(Recovery, CrashOfIdleNodeIsInvisible) {
  Net net;
  net.add('A', 'A');
  net.add('B', 'A');
  net.add('C', 'A');
  net.crash('C');
  net.recover(1, 'A');
  (void)net['B'].request_lock(Mode::kW);
  net.pump();
  ASSERT_EQ(net.acquired['B'].size(), 1u);
  net['B'].unlock(net.acquired['B'][0].first);
  net.pump();
}

TEST(Recovery, DeadReadersHoldVanishes) {
  Net net;
  net.add('A', 'A');
  net.add('B', 'A');
  net.add('C', 'A');
  (void)net['B'].request_lock(Mode::kR);
  net.pump();
  // C wants W: blocked by B's R.
  (void)net['C'].request_lock(Mode::kW);
  net.pump();
  EXPECT_TRUE(net.acquired['C'].empty());
  // B crashes while holding R; view service recovers around it.
  net.crash('B');
  net.recover(1, 'A');
  // C re-issued its pending W; with B's hold gone it must be served.
  ASSERT_EQ(net.acquired['C'].size(), 1u);
  EXPECT_EQ(net.acquired['C'][0].second, Mode::kW);
  net['C'].unlock(net.acquired['C'][0].first);
  net.pump();
}

TEST(Recovery, TokenHolderCrashRegeneratesToken) {
  Net net;
  net.add('A', 'A');
  net.add('B', 'A');
  net.add('C', 'A');
  // Move the token to C.
  (void)net['C'].request_lock(Mode::kW);
  net.pump();
  ASSERT_TRUE(net['C'].is_token_node());
  // B queues a request behind C's W.
  (void)net['B'].request_lock(Mode::kR);
  net.pump();
  EXPECT_TRUE(net.acquired['B'].empty());
  // C crashes with the token and a queued request.
  net.crash('C');
  net.recover(1, 'A');
  // B's pending was re-issued to the regenerated root and served (the
  // fresh token immediately travels to B, the strongest requester).
  ASSERT_EQ(net.acquired['B'].size(), 1u);
  EXPECT_EQ(net.acquired['B'][0].second, Mode::kR);
  // Exactly one token among the survivors.
  const int tokens = (net['A'].is_token_node() ? 1 : 0) +
                     (net['B'].is_token_node() ? 1 : 0);
  EXPECT_EQ(tokens, 1);
  net['B'].unlock(net.acquired['B'][0].first);
  net.pump();
}

TEST(Recovery, SurvivorHoldsAreReattachedAndStillBlockWriters) {
  Net net;
  net.add('A', 'A');
  net.add('B', 'A');
  net.add('C', 'A');
  net.add('D', 'A');
  (void)net['B'].request_lock(Mode::kIR);
  net.pump();
  (void)net['C'].request_lock(Mode::kIR);
  net.pump();
  // A (the root) crashes. B and C keep their IR holds.
  net.crash('A');
  net.recover(1, 'B');
  ASSERT_TRUE(net['B'].is_token_node());
  EXPECT_NE(net['B'].child_mode(id_of('C')), Mode::kNone);
  // A writer must still wait for BOTH survivors' IR holds.
  (void)net['D'].request_lock(Mode::kW);
  net.pump();
  EXPECT_TRUE(net.acquired['D'].empty());
  net['C'].unlock(net.acquired['C'][0].first);
  net.pump();
  EXPECT_TRUE(net.acquired['D'].empty());  // B's IR still out
  net['B'].unlock(net.acquired['B'][0].first);
  net.pump();
  ASSERT_EQ(net.acquired['D'].size(), 1u);
  net['D'].unlock(net.acquired['D'][0].first);
  net.pump();
}

TEST(Recovery, StaleViewTokenIsFenced) {
  Net net;
  net.add('A', 'A');
  net.add('B', 'A');
  // Craft a view-0 token aimed at B, delivered after recovery to view 1.
  Message stale;
  stale.kind = MsgKind::kToken;
  stale.lock = LockId{0};
  stale.from = id_of('A');
  stale.mode = Mode::kW;
  stale.view = 0;
  net.recover(1, 'A');
  net['B'].handle(stale);  // must be dropped silently
  EXPECT_FALSE(net['B'].is_token_node());
  // Exactly one token in the system.
  EXPECT_TRUE(net['A'].is_token_node());
}

TEST(Recovery, PendingUpgradeSurvivesCrashOfBlockingReader) {
  Net net;
  net.add('A', 'A');
  net.add('B', 'A');
  net.add('C', 'A');
  const RequestId ua = net['A'].request_lock(Mode::kU);
  (void)net['B'].request_lock(Mode::kR);  // compatible reader
  net.pump();
  net['A'].upgrade(ua);
  net.pump();
  EXPECT_TRUE(net.upgraded['A'].empty());  // blocked by B
  net.crash('B');
  net.recover(1, 'A');
  // B's R is gone; the re-queued upgrade completes.
  ASSERT_EQ(net.upgraded['A'].size(), 1u);
  EXPECT_EQ(net['A'].holds().at(ua), Mode::kW);
  net['A'].unlock(ua);
  net.pump();
}

TEST(Recovery, SuccessiveCrashesAndRecoveries) {
  Net net;
  net.add('A', 'A');
  net.add('B', 'A');
  net.add('C', 'A');
  net.add('D', 'A');
  (void)net['B'].request_lock(Mode::kR);
  net.pump();
  net.crash('A');
  net.recover(1, 'B');
  (void)net['C'].request_lock(Mode::kR);
  net.pump();
  ASSERT_EQ(net.acquired['C'].size(), 1u);
  net.crash('B');
  net.recover(2, 'C');
  ASSERT_TRUE(net['C'].is_token_node());
  (void)net['D'].request_lock(Mode::kIR);
  net.pump();
  ASSERT_EQ(net.acquired['D'].size(), 1u);
  net['C'].unlock(net.acquired['C'][0].first);
  net['D'].unlock(net.acquired['D'][0].first);
  net.pump();
}

// The head-bypass streak is token state: a regenerated token must start
// with a fresh streak or the fairness cap misbehaves across the view
// change (a maxed-out pre-crash streak would suppress legal post-recovery
// bypasses; regression for the begin_recovery reset).
TEST(Recovery, LocalityStreakResetsWithRegeneratedToken) {
  EngineOptions opts;
  opts.locality_bias = true;
  opts.locality_fairness_cap = 1;
  // A,B in cluster 0; C,D in cluster 1.
  const ClusterMap map = ClusterMap::make(4, 2, ClusterPlacement::kBlock);
  Net net(opts, &map);
  net.add('A', 'A');
  net.add('B', 'A');
  net.add('C', 'A');
  net.add('D', 'A');

  // A (root, token) piles up R holds; remote C's W queues at the head and
  // freezes R, so same-cluster B's R queues behind it. Releasing one of
  // A's spare holds triggers queue service: the biased pick copy-grants B
  // past the blocked head, maxing the streak at the cap.
  const RequestId ra = net['A'].request_lock(Mode::kR);
  const RequestId ra2 = net['A'].request_lock(Mode::kR);
  const RequestId ra3 = net['A'].request_lock(Mode::kR);
  net.pump();
  (void)net['C'].request_lock(Mode::kW);
  net.pump();
  (void)net['B'].request_lock(Mode::kR);
  net.pump();
  EXPECT_TRUE(net.acquired['B'].empty());  // R frozen by the queued W
  net['A'].unlock(ra3);
  net.pump();
  ASSERT_EQ(net.acquired['B'].size(), 1u);  // bypassed C's queued W
  EXPECT_EQ(net['A'].locality_streak(), 1u);
  net['B'].unlock(net.acquired['B'][0].first);
  net.pump();

  // Idle D crashes; the view change regenerates the token at A. C's
  // pending W is re-issued and queues again behind A's surviving R holds.
  net.crash('D');
  net.recover(1, 'A');
  EXPECT_TRUE(net['A'].is_token_node());
  EXPECT_TRUE(net.acquired['C'].empty());
  EXPECT_EQ(net['A'].locality_streak(), 0u);

  // Behavioral pin: with the streak reset, B's next same-cluster R may
  // again bypass the head at the next service point; with a stale streak
  // (== cap) it would sit blocked behind C's W until A fully released.
  (void)net['B'].request_lock(Mode::kR);
  net.pump();
  net['A'].unlock(ra2);
  net.pump();
  ASSERT_EQ(net.acquired['B'].size(), 2u);
  EXPECT_TRUE(net.acquired['C'].empty());

  // Unwind: readers drain, then C's W is finally served head-first.
  net['B'].unlock(net.acquired['B'][1].first);
  net['A'].unlock(ra);
  net.pump();
  ASSERT_EQ(net.acquired['C'].size(), 1u);
  EXPECT_EQ(net.acquired['C'][0].second, Mode::kW);
  net['C'].unlock(net.acquired['C'][0].first);
  net.pump();
}

// Requests and attaches stamped with a pre-recovery view must be fenced,
// not queued — a crashed node's in-flight traffic cannot leak into the
// rebuilt tree.
TEST(Recovery, StaleViewRequestAndAttachAreFenced) {
  Net net;
  net.add('A', 'A');
  net.add('B', 'A');
  net.add('C', 'A');
  net.crash('C');
  net.recover(1, 'A');

  // View-0 request from the dead C, delivered late.
  Message req;
  req.kind = MsgKind::kRequest;
  req.lock = LockId{0};
  req.from = id_of('C');
  req.req = QueuedRequest{id_of('C'), Mode::kW, LamportStamp{1, id_of('C')}};
  req.view = 0;
  net['A'].handle(req);
  // View-0 attach claiming a W hold, delivered late.
  Message att;
  att.kind = MsgKind::kAttach;
  att.lock = LockId{0};
  att.from = id_of('C');
  att.mode = Mode::kW;
  att.view = 0;
  net['A'].handle(att);

  // Neither fenced message left a trace: C is not a child, and a live
  // writer is served instantly (nothing queued ahead of it, nothing
  // phantom-held against it).
  EXPECT_EQ(net['A'].child_mode(id_of('C')), Mode::kNone);
  (void)net['B'].request_lock(Mode::kW);
  net.pump();
  ASSERT_EQ(net.acquired['B'].size(), 1u);
  net['B'].unlock(net.acquired['B'][0].first);
  net.pump();
}

// A second crash during an open recovery barrier: the new view supersedes
// the half-finished one, view-1 attaches are fenced at the view-2 root,
// and exactly one token emerges.
TEST(Recovery, SecondRecoveryBeforeFirstBarrierCompletes) {
  Net net;
  net.add('A', 'A');
  net.add('B', 'A');
  net.add('C', 'A');
  net.add('D', 'A');
  (void)net['B'].request_lock(Mode::kR);
  net.pump();

  net.crash('D');
  // View 1 starts on every survivor, but its attaches are NOT delivered:
  // C dies mid-barrier and view 2 begins first.
  const std::set<NodeId> v1{id_of('A'), id_of('B'), id_of('C')};
  net['A'].begin_recovery(1, id_of('A'), v1);
  net['B'].begin_recovery(1, id_of('A'), v1);
  net['C'].begin_recovery(1, id_of('A'), v1);
  net.crash('C');
  const std::set<NodeId> v2{id_of('A'), id_of('B')};
  net['A'].begin_recovery(2, id_of('A'), v2);
  net['B'].begin_recovery(2, id_of('A'), v2);
  // Everything lands at once: C's (and B's) view-1 attaches are stale at
  // the view-2 root; B's view-2 attach closes the barrier.
  net.pump();

  EXPECT_TRUE(net['A'].is_token_node());
  EXPECT_FALSE(net['B'].is_token_node());
  EXPECT_EQ(net['A'].child_mode(id_of('C')), Mode::kNone);
  // B's R hold survived both recoveries and still blocks a writer.
  (void)net['A'].request_lock(Mode::kW);
  net.pump();
  EXPECT_TRUE(net.acquired['A'].empty());
  net['B'].unlock(net.acquired['B'][0].first);
  net.pump();
  ASSERT_EQ(net.acquired['A'].size(), 1u);
  net['A'].unlock(net.acquired['A'][0].first);
  net.pump();
}

TEST(Recovery, ApiValidation) {
  Net net;
  net.add('A', 'A');
  net.add('B', 'A');
  const std::set<NodeId> both{id_of('A'), id_of('B')};
  net['A'].begin_recovery(1, id_of('A'), both);
  EXPECT_THROW(net['A'].begin_recovery(1, id_of('A'), both),
               std::invalid_argument);
  EXPECT_THROW(net['A'].begin_recovery(0, id_of('A'), both),
               std::invalid_argument);
  EXPECT_THROW(net['A'].begin_recovery(7, id_of('A'), {id_of('B')}),
               std::invalid_argument);
  net['B'].leave();
  EXPECT_THROW(net['B'].begin_recovery(5, id_of('A'), both),
               std::logic_error);
}

}  // namespace
}  // namespace hlock::core
