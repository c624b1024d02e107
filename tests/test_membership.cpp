// Dynamic-membership tests: graceful leave of plain members, copyset
// members with children, and token holders; cascading departures; stray
// traffic through tombstones.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <vector>

#include "core/hls_engine.hpp"
#include "test_util.hpp"

namespace hlock::core {
namespace {

NodeId id_of(char c) { return NodeId{static_cast<std::uint32_t>(c - 'A')}; }

struct Net {
  HlsEngine& add(char name, char root, char parent = '\0') {
    auto engine = factory.make(
        id_of(name), id_of(root), bus.port(id_of(name)), EngineOptions{},
        [this, name](RequestId id, Mode mode) {
          acquired[name].emplace_back(id, mode);
        },
        {}, parent == '\0' ? NodeId::invalid() : id_of(parent));
    HlsEngine* raw = engine.get();
    bus.register_handler(id_of(name),
                         [raw](const Message& m) { raw->handle(m); });
    engines[name] = std::move(engine);
    return *raw;
  }
  HlsEngine& operator[](char c) { return *engines.at(c); }
  void pump() { bus.deliver_all(); }

  testing::TestBus bus;
  testing::EngineFactory factory;
  std::map<char, std::unique_ptr<HlsEngine>> engines;
  std::map<char, std::vector<std::pair<RequestId, Mode>>> acquired;
};

TEST(Membership, IdleNonOwnerLeavesSilently) {
  Net net;
  net.add('A', 'A');
  net.add('B', 'A');
  net['B'].leave();
  EXPECT_TRUE(net['B'].departed());
  EXPECT_EQ(net.bus.total_sent(), 0u);  // nothing to hand over
  // The remaining node still works.
  const RequestId ra = net['A'].request_lock(Mode::kW);
  net['A'].unlock(ra);
}

TEST(Membership, LeaveWithHoldsOrPendingIsRefused) {
  Net net;
  net.add('A', 'A');
  net.add('B', 'A');
  const RequestId ra = net['A'].request_lock(Mode::kR);
  EXPECT_THROW(net['A'].leave(id_of('B')), std::logic_error);
  net['A'].unlock(ra);
  (void)net['B'].request_lock(Mode::kR);  // pending, messages undelivered
  EXPECT_THROW(net['B'].leave(), std::logic_error);
  net.pump();
}

TEST(Membership, TokenHolderHandsOff) {
  Net net;
  net.add('A', 'A');
  net.add('B', 'A');
  net['A'].leave(id_of('B'));
  net.pump();
  EXPECT_TRUE(net['A'].departed());
  EXPECT_TRUE(net['B'].is_token_node());
  // B can now self-acquire everything silently.
  const auto id = net['B'].try_request_lock(Mode::kW);
  ASSERT_TRUE(id.has_value());
  net['B'].unlock(*id);
}

TEST(Membership, TombstoneRoutesStaleHints) {
  Net net;
  net.add('A', 'A');
  net.add('B', 'A');
  net.add('C', 'A');
  // Serve C once so the tree has history, then A (whoever holds the
  // token) departs and stale hints keep routing through its tombstone.
  const RequestId ra = net['A'].request_lock(Mode::kW);
  (void)net['C'].request_lock(Mode::kR);  // queued at root A
  net.pump();
  ASSERT_EQ(net['A'].queue().size(), 1u);
  net['A'].unlock(ra);
  net.pump();
  // The release transferred the token to C (tokenable(∅, R)).
  ASSERT_TRUE(net['C'].is_token_node());
  net['C'].unlock(net.acquired['C'][0].first);
  net.pump();
  net['C'].leave(id_of('B'));
  net.pump();
  ASSERT_TRUE(net['B'].is_token_node());
  // A's parent hint points at C's tombstone: its request must route
  // through and be served by B.
  (void)net['A'].request_lock(Mode::kW);
  net.pump();
  EXPECT_EQ(net.acquired['A'].size(), 2u);
  EXPECT_EQ(net.acquired['A'][1].second, Mode::kW);
  net['A'].unlock(net.acquired['A'][1].first);
}

TEST(Membership, CopysetMemberLeavesChildrenReattach) {
  Net net;
  net.add('A', 'A');
  net.add('B', 'A');
  net.add('C', 'A', 'B');
  const RequestId ra = net['A'].request_lock(Mode::kR);
  const RequestId rb = net['B'].request_lock(Mode::kR);
  net.pump();
  (void)net['C'].request_lock(Mode::kIR);  // granted by B
  net.pump();
  ASSERT_NE(net['B'].child_mode(id_of('C')), Mode::kNone);

  net['B'].unlock(rb);
  net.pump();
  net['B'].leave();
  net.pump();
  EXPECT_TRUE(net['B'].departed());
  // C must now be A's child with its authoritative mode.
  ASSERT_NE(net['A'].child_mode(id_of('C')), Mode::kNone);
  EXPECT_EQ(net['A'].child_mode(id_of('C')), Mode::kIR);
  EXPECT_EQ(net['C'].parent(), id_of('A'));
  // And releases flow correctly to the new parent.
  net['C'].unlock(net.acquired['C'][0].first);
  net.pump();
  EXPECT_EQ(net['A'].child_mode(id_of('C')), Mode::kNone);
  net['A'].unlock(ra);
}

TEST(Membership, WriterBlockedByLeaverSubtreeStillProceeds) {
  // A(root, holds R) with child B(owns IR via child C). B leaves; C's IR
  // must keep blocking a W until C releases — no phantom loss or
  // double-count.
  Net net;
  net.add('A', 'A');
  net.add('B', 'A');
  net.add('C', 'A', 'B');
  net.add('D', 'A');
  const RequestId ra = net['A'].request_lock(Mode::kR);
  const RequestId rb = net['B'].request_lock(Mode::kIR);
  net.pump();
  (void)net['C'].request_lock(Mode::kIR);
  net.pump();
  net['B'].unlock(rb);
  net.pump();
  net['B'].leave();
  net.pump();

  (void)net['D'].request_lock(Mode::kW);
  net.pump();
  EXPECT_EQ(net.acquired['D'].size(), 0u);  // blocked by A's R and C's IR
  net['A'].unlock(ra);
  net.pump();
  EXPECT_EQ(net.acquired['D'].size(), 0u);  // still blocked by C
  net['C'].unlock(net.acquired['C'][0].first);
  net.pump();
  ASSERT_EQ(net.acquired['D'].size(), 1u);  // now served
  net['D'].unlock(net.acquired['D'][0].first);
}

TEST(Membership, CascadingLeaves) {
  Net net;
  net.add('A', 'A');
  net.add('B', 'A');
  net.add('C', 'A');
  net.add('D', 'A');
  // Everyone but D leaves, token cascades A -> B -> C -> D.
  net['A'].leave(id_of('B'));
  net.pump();
  net['B'].leave(id_of('C'));
  net.pump();
  net['C'].leave(id_of('D'));
  net.pump();
  EXPECT_TRUE(net['D'].is_token_node());
  // D serves a request routed through all three tombstones.
  // (simulate a stale hint: send D's... — C,B,A all forward)
  const auto id = net['D'].try_request_lock(Mode::kW);
  ASSERT_TRUE(id.has_value());
  net['D'].unlock(*id);
}

TEST(Membership, RequestThroughChainOfTombstones) {
  Net net;
  net.add('A', 'A');
  net.add('B', 'A');
  net.add('C', 'A', 'B');  // C's hint points at B
  net['A'].leave(id_of('B'));
  net.pump();
  // C's request goes to tombstone? No: B is live root now. Make B leave
  // too, with D... there is no D; leave to A? A is departed — pick C.
  net['B'].leave(id_of('C'));
  net.pump();
  EXPECT_TRUE(net['C'].is_token_node());
  // A request from... C is root; everything is local now.
  const auto id = net['C'].try_request_lock(Mode::kU);
  ASSERT_TRUE(id.has_value());
  net['C'].unlock(*id);
  // Stray request addressed to the two tombstones still finds C.
  Message stray;
  stray.kind = MsgKind::kRequest;
  stray.lock = LockId{0};
  stray.req.requester = id_of('C');
  stray.req.mode = Mode::kR;
  // (a returning self-request with no pending is simply dropped at C)
  net['A'].handle(stray);
  net.pump();
}

TEST(Membership, DepartedEngineRejectsFurtherUse) {
  Net net;
  net.add('A', 'A');
  net.add('B', 'A');
  net['B'].leave();
  EXPECT_THROW(net['B'].leave(), std::logic_error);
}

}  // namespace
}  // namespace hlock::core
