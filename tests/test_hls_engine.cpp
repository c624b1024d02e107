// Protocol-engine unit tests with a manually pumped bus: each test pins a
// specific rule of the paper (or a race the operational specification has
// to resolve) at the message level.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <span>
#include <stdexcept>
#include <vector>

#include "common/rng.hpp"
#include "core/hls_engine.hpp"
#include "core/request_queue.hpp"
#include "test_util.hpp"

namespace hlock::core {
namespace {

NodeId id_of(char c) { return NodeId{static_cast<std::uint32_t>(c - 'A')}; }

/// Small fixture: named engines over a TestBus, with acquisition records.
struct Net {
  HlsEngine& add(char name, char root, EngineOptions opts = {},
                 char parent = '\0') {
    auto engine = factory.make(
        id_of(name), id_of(root), bus.port(id_of(name)), opts,
        [this, name](RequestId id, Mode mode) {
          acquired[name].emplace_back(id, mode);
        },
        [this, name](RequestId id) { upgraded[name].push_back(id); },
        parent == '\0' ? NodeId::invalid() : id_of(parent));
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
  std::map<char, std::vector<RequestId>> upgraded;
};

// ------------------------------------------------------------- basics --

TEST(HlsEngine, TokenNodeSelfAcquiresEveryModeWithoutMessages) {
  for (const Mode m : kRealModes) {
    Net net;
    net.add('A', 'A');
    const RequestId id = net['A'].request_lock(m);
    EXPECT_EQ(net.acquired['A'].size(), 1u);
    EXPECT_EQ(net.acquired['A'][0].second, m);
    EXPECT_EQ(net.bus.total_sent(), 0u);
    net['A'].unlock(id);
    EXPECT_EQ(net.bus.total_sent(), 0u);
  }
}

TEST(HlsEngine, RemoteRequestCostsRequestPlusGrant) {
  Net net;
  net.add('A', 'A');
  net.add('B', 'A');
  (void)net['B'].request_lock(Mode::kIR);
  net.pump();
  EXPECT_EQ(net.acquired['B'].size(), 1u);
  EXPECT_EQ(net.bus.sent(MsgKind::kRequest), 1u);
  // IR is weaker than nothing-held root: ∅ < IR means token transfer.
  EXPECT_EQ(net.bus.sent(MsgKind::kToken), 1u);
  EXPECT_TRUE(net['B'].is_token_node());
}

TEST(HlsEngine, CopyGrantWhenRootHoldsEqualMode) {
  Net net;
  net.add('A', 'A');
  net.add('B', 'A');
  const RequestId ra = net['A'].request_lock(Mode::kR);
  (void)net['B'].request_lock(Mode::kR);
  net.pump();
  EXPECT_EQ(net.bus.sent(MsgKind::kGrant), 1u);
  EXPECT_EQ(net.bus.sent(MsgKind::kToken), 0u);
  EXPECT_TRUE(net['A'].is_token_node());
  EXPECT_EQ(net['A'].child_mode(id_of('B')), Mode::kR);
  EXPECT_EQ(net['B'].parent(), id_of('A'));
  net['A'].unlock(ra);
}

TEST(HlsEngine, Rule2LocalAcquireUnderOwnedMode) {
  Net net;
  net.add('A', 'A');
  net.add('B', 'A');
  (void)net['B'].request_lock(Mode::kR);
  net.pump();
  const auto sent_before = net.bus.total_sent();
  // B owns R (it took the token): IR is weaker and compatible -> local.
  (void)net['B'].request_lock(Mode::kIR);
  EXPECT_EQ(net.acquired['B'].size(), 2u);
  EXPECT_EQ(net.bus.total_sent(), sent_before);
}

TEST(HlsEngine, Rule2IncompatibleOwnModeGoesRemote) {
  Net net;
  net.add('A', 'A');
  net.add('B', 'A');
  const RequestId ra = net['A'].request_lock(Mode::kR);  // root holds R
  (void)net['B'].request_lock(Mode::kR);
  net.pump();
  // B holds R (copy). Requesting IW is incompatible with its own owned R:
  // must go remote (and queue at the root until R drains).
  (void)net['B'].request_lock(Mode::kIW);
  net.pump();
  EXPECT_EQ(net.acquired['B'].size(), 1u);  // not granted yet
  EXPECT_TRUE(net['B'].has_pending());
  // Release both R holds: the queued IW must come through.
  net['A'].unlock(ra);
  net.pump();
  net['B'].unlock(net.acquired['B'][0].first);
  net.pump();
  EXPECT_EQ(net.acquired['B'].size(), 2u);
  EXPECT_EQ(net.acquired['B'][1].second, Mode::kIW);
}

// ------------------------------------------------- Rule 3.1 child grants --

TEST(HlsEngine, ChildGrantsWeakerCompatibleRequest) {
  Net net;
  net.add('A', 'A');
  net.add('B', 'A');
  net.add('C', 'A', {}, 'B');  // C's probable owner is B
  const RequestId ra = net['A'].request_lock(Mode::kR);
  (void)net['B'].request_lock(Mode::kR);
  net.pump();
  const auto requests_before = net.bus.sent(MsgKind::kRequest);
  (void)net['C'].request_lock(Mode::kIR);
  net.pump();
  // B granted it directly: exactly one request hop, no traffic to A.
  EXPECT_EQ(net.bus.sent(MsgKind::kRequest), requests_before + 1);
  EXPECT_EQ(net['B'].child_mode(id_of('C')), Mode::kIR);
  EXPECT_EQ(net['C'].parent(), id_of('B'));
  EXPECT_EQ(net.acquired['C'].size(), 1u);
  net['A'].unlock(ra);
}

TEST(HlsEngine, ChildGrantDisabledForwardsToRoot) {
  EngineOptions opts;
  opts.allow_child_grants = false;
  Net net;
  net.add('A', 'A', opts);
  net.add('B', 'A', opts);
  net.add('C', 'A', opts, 'B');
  const RequestId ra = net['A'].request_lock(Mode::kR);
  (void)net['B'].request_lock(Mode::kR);
  net.pump();
  (void)net['C'].request_lock(Mode::kIR);
  net.pump();
  // C's request forwarded B -> A; the grant comes from the root.
  EXPECT_EQ(net['C'].parent(), id_of('A'));
  EXPECT_NE(net['A'].child_mode(id_of('C')), Mode::kNone);
  EXPECT_EQ(net['B'].child_mode(id_of('C')), Mode::kNone);
  net['A'].unlock(ra);
}

TEST(HlsEngine, ChildNeverGrantsStrongerMode) {
  Net net;
  net.add('A', 'A');
  net.add('B', 'A');
  net.add('C', 'A', {}, 'B');
  const RequestId ra = net['A'].request_lock(Mode::kU);
  (void)net['B'].request_lock(Mode::kIR);
  net.pump();
  // B owns IR; C asks for R (stronger): B must forward, the root (owning
  // U, compatible with R) grants the copy.
  (void)net['C'].request_lock(Mode::kR);
  net.pump();
  EXPECT_EQ(net['C'].parent(), id_of('A'));
  EXPECT_EQ(net.acquired['C'].size(), 1u);
  net['A'].unlock(ra);
}

// ------------------------------------------- Table 2(a) local queueing --

TEST(HlsEngine, PendingNodeQueuesEqualModeAndServesAfterGrant) {
  // The Figure 2 race as a unit test: D's R reaches B while B's own R
  // request is in transit; B queues it (Table 2(a) row R) and grants it
  // itself once its grant arrives.
  Net net;
  net.add('A', 'A');
  net.add('B', 'A');
  net.add('D', 'A', {}, 'B');
  const RequestId ra = net['A'].request_lock(Mode::kR);
  (void)net['B'].request_lock(Mode::kR);     // in transit
  (void)net['D'].request_lock(Mode::kR);     // reaches B first
  ASSERT_EQ(net.bus.pending(), 2u);
  net.bus.deliver_at(1);  // D's request to B: queued
  EXPECT_EQ(net['B'].queue().size(), 1u);
  net.pump();  // B's request to A, grant back, B grants D
  EXPECT_EQ(net.acquired['B'].size(), 1u);
  EXPECT_EQ(net.acquired['D'].size(), 1u);
  EXPECT_EQ(net['D'].parent(), id_of('B'));
  EXPECT_EQ(net.bus.sent(MsgKind::kGrant), 2u);  // A->B and B->D
  net['A'].unlock(ra);
}

TEST(HlsEngine, PendingNodeForwardsNonQueueableMode) {
  Net net;
  net.add('A', 'A');
  net.add('B', 'A');
  net.add('D', 'A', {}, 'B');
  const RequestId ra = net['A'].request_lock(Mode::kR);
  (void)net['B'].request_lock(Mode::kR);
  (void)net['D'].request_lock(Mode::kIR);  // row R, col IR -> forward
  net.bus.deliver_at(1);                   // D's request reaches B
  EXPECT_EQ(net['B'].queue().size(), 0u);  // forwarded, not queued
  net.pump();
  EXPECT_EQ(net.acquired['D'].size(), 1u);
  EXPECT_EQ(net['D'].parent(), id_of('A'));  // granted by the root
  net['A'].unlock(ra);
}

TEST(HlsEngine, LocalQueuesDisabledAlwaysForward) {
  EngineOptions opts;
  opts.allow_local_queues = false;
  Net net;
  net.add('A', 'A', opts);
  net.add('B', 'A', opts);
  net.add('D', 'A', opts, 'B');
  const RequestId ra = net['A'].request_lock(Mode::kR);
  (void)net['B'].request_lock(Mode::kR);
  (void)net['D'].request_lock(Mode::kR);
  net.bus.deliver_at(1);
  EXPECT_EQ(net['B'].queue().size(), 0u);  // would queue per Table 2(a)
  net.pump();
  EXPECT_EQ(net.acquired['D'].size(), 1u);
  net['A'].unlock(ra);
}

// ------------------------------------------------------- Rule 6 freeze --

TEST(HlsEngine, QueuedIncompatibleRequestFreezesTokenAndChildren) {
  Net net;
  net.add('A', 'A');
  net.add('B', 'A');
  net.add('D', 'A');
  const RequestId ra = net['A'].request_lock(Mode::kIW);
  (void)net['B'].request_lock(Mode::kIW);
  net.pump();
  (void)net['D'].request_lock(Mode::kR);
  net.pump();
  // Table 2(b): owned IW, queued R -> freeze {IW}; B is a potential
  // granter of IW and must have been notified.
  EXPECT_TRUE(net['A'].frozen().contains(Mode::kIW));
  EXPECT_TRUE(net['B'].frozen().contains(Mode::kIW));
  EXPECT_GE(net.bus.sent(MsgKind::kFreeze), 1u);

  // A frozen child refuses to grant even a compatible weaker mode it owns.
  Net probe;  // (separate check below uses the same cluster instead)
  (void)probe;
  const auto grants_before = net.bus.sent(MsgKind::kGrant);
  net.add('E', 'A', {}, 'B');
  (void)net['E'].request_lock(Mode::kIW);  // B owns IW but IW is frozen
  net.bus.deliver_one();                   // E's request at B
  EXPECT_EQ(net.bus.sent(MsgKind::kGrant), grants_before);  // no grant
  net.pump();

  // Releases drain IW; D's R must be served and modes unfrozen.
  net['A'].unlock(ra);
  net['B'].unlock(net.acquired['B'][0].first);
  net.pump();
  EXPECT_EQ(net.acquired['D'].size(), 1u);
  // E's IW eventually comes through too (it queued behind / was forwarded).
  net['E'].holds().empty()
      ? (void)0
      : net['E'].unlock(net.acquired['E'][0].first);
}

TEST(HlsEngine, FreezeDisabledAllowsBypass) {
  EngineOptions opts;
  opts.enable_freezing = false;
  Net net;
  net.add('A', 'A', opts);
  net.add('B', 'A', opts);
  net.add('D', 'A', opts);
  const RequestId ra = net['A'].request_lock(Mode::kIW);
  (void)net['D'].request_lock(Mode::kR);  // queued, no freezing
  net.pump();
  EXPECT_TRUE(net['A'].frozen().empty());
  // A new IW request bypasses the queued R (the unfairness the paper's
  // freezing prevents).
  (void)net['B'].request_lock(Mode::kIW);
  net.pump();
  EXPECT_EQ(net.acquired['B'].size(), 1u);
  EXPECT_EQ(net.acquired['D'].size(), 0u);
  net['A'].unlock(ra);
  net['B'].unlock(net.acquired['B'][0].first);
  net.pump();
  EXPECT_EQ(net.acquired['D'].size(), 1u);
}

TEST(HlsEngine, FreezeBlocksRule2LocalAcquire) {
  Net net;
  net.add('A', 'A');
  net.add('D', 'A');
  const RequestId ra = net['A'].request_lock(Mode::kIW);
  (void)net['D'].request_lock(Mode::kR);
  net.pump();
  ASSERT_TRUE(net['A'].frozen().contains(Mode::kIW));
  // The token node owns IW and would normally self-acquire IW silently;
  // frozen IW forces it into the queue behind D's R.
  (void)net['A'].request_lock(Mode::kIW);
  EXPECT_EQ(net.acquired['A'].size(), 1u);  // only the original hold
  EXPECT_TRUE(net['A'].has_pending());
  net['A'].unlock(ra);
  net.pump();
  // D first (FIFO), then A's queued IW after D releases.
  EXPECT_EQ(net.acquired['D'].size(), 1u);
  net['D'].unlock(net.acquired['D'][0].first);
  net.pump();
  EXPECT_EQ(net.acquired['A'].size(), 2u);
}

// ------------------------------------------------------ Rule 7 upgrade --

TEST(HlsEngine, UpgradeImmediateWhenAlone) {
  Net net;
  net.add('A', 'A');
  const RequestId id = net['A'].request_lock(Mode::kU);
  net['A'].upgrade(id);
  ASSERT_EQ(net.upgraded['A'].size(), 1u);
  EXPECT_EQ(net['A'].holds().at(id), Mode::kW);
  EXPECT_EQ(net.bus.total_sent(), 0u);
  net['A'].unlock(id);
}

TEST(HlsEngine, UpgradeWaitsForCompatibleReader) {
  Net net;
  net.add('A', 'A');
  net.add('B', 'A');
  const RequestId ua = net['A'].request_lock(Mode::kU);
  (void)net['B'].request_lock(Mode::kR);  // R compatible with U
  net.pump();
  net['A'].upgrade(ua);
  net.pump();
  EXPECT_TRUE(net.upgraded['A'].empty());  // blocked on B's R
  net['B'].unlock(net.acquired['B'][0].first);
  net.pump();
  ASSERT_EQ(net.upgraded['A'].size(), 1u);
  EXPECT_EQ(net['A'].holds().at(ua), Mode::kW);
  net['A'].unlock(ua);
}

TEST(HlsEngine, RemoteUpgraderReceivesToken) {
  Net net;
  net.add('A', 'A');
  net.add('B', 'A');
  (void)net['B'].request_lock(Mode::kU);
  net.pump();
  // B held U via token transfer (∅ < U). Move the token back to A first so
  // the upgrade has to travel: A requests IR; U vs IR are compatible...
  // U is the stronger mode, so A gets a copy and B keeps the token. Make
  // B a non-token U holder instead by bouncing the token through A with W.
  net['B'].unlock(net.acquired['B'][0].first);
  const RequestId wa = net['A'].request_lock(Mode::kW);
  net.pump();
  ASSERT_TRUE(net['A'].is_token_node());
  net['A'].unlock(wa);
  // Now B asks U -> token moves to B? ∅ < U yes. To get a NON-token U
  // holder, A must hold something weaker first: A holds IR, B requests U:
  // compatible(IR, U) and IR < U -> token transfer with sender_owned=IR.
  const RequestId ia = net['A'].request_lock(Mode::kIR);
  const RequestId ub = net['B'].request_lock(Mode::kU);
  net.pump();
  ASSERT_TRUE(net['B'].is_token_node());
  ASSERT_FALSE(net['A'].is_token_node());
  // B upgrades while A still holds IR: IR is incompatible with W, so the
  // upgrade waits for A's release.
  net['B'].upgrade(ub);
  net.pump();
  EXPECT_TRUE(net.upgraded['B'].empty());
  net['A'].unlock(ia);
  net.pump();
  ASSERT_EQ(net.upgraded['B'].size(), 1u);
  EXPECT_EQ(net['B'].holds().at(ub), Mode::kW);
  net['B'].unlock(ub);
}

TEST(HlsEngine, NonTokenUpgraderSendsUpgradeRequest) {
  Net net;
  net.add('A', 'A');
  net.add('B', 'A');
  // A holds W (token stays), B gets U copy later: W incompatible -> B's U
  // waits; instead: A holds IR and keeps token? IR < U transfers. To pin
  // the token at A, A holds U itself... then B can't get U. Use R: A holds
  // R + token; B requests... R < U transfers again. The protocol always
  // moves the token to the strongest holder, so a non-token U holder only
  // arises when the token moved on: B holds U as token node, C takes W
  // after B's release... Simplest realistic scenario: B holds U as token
  // node, A holds IR as B's child, B upgrades (tested above). Here we pin
  // B's upgrade REQUEST path: B holds U, token at B, C requests W and is
  // queued; B's upgrade must still win (Rule 7 priority).
  net.add('C', 'A');
  (void)net['B'].request_lock(Mode::kU);
  net.pump();
  ASSERT_TRUE(net['B'].is_token_node());
  (void)net['C'].request_lock(Mode::kW);
  net.pump();
  EXPECT_EQ(net['B'].queue().size(), 1u);  // C's W waits for the U
  const RequestId ub = net.acquired['B'][0].first;
  net['B'].upgrade(ub);
  net.pump();
  // The upgrade jumped the queue (deadlock avoidance).
  ASSERT_EQ(net.upgraded['B'].size(), 1u);
  EXPECT_EQ(net.acquired['C'].size(), 0u);
  net['B'].unlock(ub);
  net.pump();
  EXPECT_EQ(net.acquired['C'].size(), 1u);
}

// ------------------------------------------------ releases and parents --

TEST(HlsEngine, LazyReleaseAbsorbedWhenOwnedUnchanged) {
  Net net;
  net.add('A', 'A');
  net.add('B', 'A');
  net.add('C', 'A', {}, 'B');
  const RequestId ra = net['A'].request_lock(Mode::kR);
  const RequestId rb = net['B'].request_lock(Mode::kIR);
  net.pump();
  (void)net['C'].request_lock(Mode::kIR);  // B grants, becomes C's parent
  net.pump();
  const auto releases_before = net.bus.sent(MsgKind::kRelease);
  net['B'].unlock(rb);  // still owns IR through C
  EXPECT_EQ(net.bus.sent(MsgKind::kRelease), releases_before);  // absorbed
  net['A'].unlock(ra);
}

TEST(HlsEngine, EagerReleaseAlwaysNotifies) {
  EngineOptions opts;
  opts.lazy_release = false;
  Net net;
  net.add('A', 'A', opts);
  net.add('B', 'A', opts);
  net.add('C', 'A', opts, 'B');
  const RequestId ra = net['A'].request_lock(Mode::kR);
  const RequestId rb = net['B'].request_lock(Mode::kIR);
  net.pump();
  (void)net['C'].request_lock(Mode::kIR);
  net.pump();
  const auto releases_before = net.bus.sent(MsgKind::kRelease);
  net['B'].unlock(rb);  // owned unchanged, but eager mode reports anyway
  EXPECT_GT(net.bus.sent(MsgKind::kRelease), releases_before);
  net.pump();
  net['A'].unlock(ra);
}

TEST(HlsEngine, StaleReleaseCrossingGrantIsDropped) {
  Net net;
  net.add('A', 'A');
  net.add('B', 'A');
  const RequestId ra = net['A'].request_lock(Mode::kR);
  (void)net['B'].request_lock(Mode::kIR);
  net.pump();
  ASSERT_EQ(net['A'].child_mode(id_of('B')), Mode::kIR);

  // B releases (Release ∅ leaves, not yet delivered) and immediately
  // re-requests R; A processes the REQUEST first if we reorder — but the
  // channel is FIFO, so instead simulate the documented race: A grants a
  // SECOND mode while B's release from the first is in flight.
  net['B'].unlock(net.acquired['B'][0].first);  // Release(∅) in flight
  (void)net['B'].request_lock(Mode::kR);        // Request(R) behind it
  ASSERT_EQ(net.bus.pending(), 2u);
  // Deliver the request BEFORE the release: this is exactly the crossing
  // the grant_seq mechanism must survive (the release is stale relative
  // to the new grant A will issue).
  net.bus.deliver_at(1);                      // request R -> A grants
  ASSERT_EQ(net['A'].child_mode(id_of('B')), Mode::kR);
  net.bus.deliver_at(0);                      // stale release arrives late
  // The stale release must NOT erase the new R registration.
  ASSERT_NE(net['A'].child_mode(id_of('B')), Mode::kNone);
  EXPECT_EQ(net['A'].child_mode(id_of('B')), Mode::kR);
  net.pump();
  net['A'].unlock(ra);
}

// A parent keeps one record per child: the child's owned mode (kNone once
// it left the copyset) and the number of grants sent to it. The count
// outlives membership, so grant sequence numbers keep rising across leaves
// and a release echoing an older count stays recognizably stale.

/// Deliver B's request to the root A and return the grant_seq of the copy
/// grant A sends back (left in flight).
std::uint64_t grant_seq_for_next_request(Net& net) {
  EXPECT_TRUE(net.bus.deliver_one());
  const auto& in = net.bus.in_flight();
  EXPECT_EQ(in.size(), 1u);
  EXPECT_EQ(in.front().msg.kind, MsgKind::kGrant);
  return in.front().msg.grant_seq;
}

TEST(HlsEngine, GrantSeqKeepsCountingAfterReleaseLeave) {
  Net net;
  net.add('A', 'A');
  net.add('B', 'A');
  const RequestId ra = net['A'].request_lock(Mode::kR);  // grants are copies
  (void)net['B'].request_lock(Mode::kIR);
  EXPECT_EQ(grant_seq_for_next_request(net), 1u);
  net.pump();
  net['B'].unlock(net.acquired['B'].back().first);  // Release(∅)
  net.pump();
  ASSERT_EQ(net['A'].child_mode(id_of('B')), Mode::kNone);
  ASSERT_EQ(net['A'].copyset_size(), 0u);

  (void)net['B'].request_lock(Mode::kIR);
  EXPECT_EQ(grant_seq_for_next_request(net), 2u);
  net.pump();
  EXPECT_EQ(net['A'].child_mode(id_of('B')), Mode::kIR);
  net['B'].unlock(net.acquired['B'].back().first);
  net['A'].unlock(ra);
  net.pump();
}

TEST(HlsEngine, GrantSeqKeepsCountingAfterTokenTransferLeave) {
  Net net;
  net.add('A', 'A');
  net.add('B', 'A');
  const RequestId ra = net['A'].request_lock(Mode::kR);
  (void)net['B'].request_lock(Mode::kIR);
  EXPECT_EQ(grant_seq_for_next_request(net), 1u);
  net.pump();
  net['A'].unlock(ra);  // A now owns IR only through B
  // B asks for R: A owns IR < R, so the token moves to B and B leaves A's
  // copyset.
  (void)net['B'].request_lock(Mode::kR);
  net.pump();
  ASSERT_TRUE(net['B'].is_token_node());
  ASSERT_EQ(net['A'].child_mode(id_of('B')), Mode::kNone);
  for (const auto& [rid, mode] : net.acquired['B']) net['B'].unlock(rid);
  net.acquired['B'].clear();

  // The token returns to A, which then copy-grants to B again.
  (void)net['A'].request_lock(Mode::kW);
  net.pump();
  ASSERT_TRUE(net['A'].is_token_node());
  net['A'].unlock(net.acquired['A'].back().first);
  const RequestId ra2 = net['A'].request_lock(Mode::kR);
  (void)net['B'].request_lock(Mode::kIR);
  EXPECT_EQ(grant_seq_for_next_request(net), 2u);
  net.pump();
  EXPECT_EQ(net['A'].child_mode(id_of('B')), Mode::kIR);
  net['B'].unlock(net.acquired['B'].back().first);
  net['A'].unlock(ra2);
  net.pump();
}

TEST(HlsEngine, LateReleaseFromEarlierMembershipIsDropped) {
  Net net;
  net.add('A', 'A');
  net.add('B', 'A');
  const RequestId ra = net['A'].request_lock(Mode::kR);
  (void)net['B'].request_lock(Mode::kIR);
  net.pump();
  net['B'].unlock(net.acquired['B'].back().first);
  ASSERT_EQ(net.bus.pending(), 1u);
  const Message old_release = net.bus.in_flight().front().msg;
  ASSERT_EQ(old_release.kind, MsgKind::kRelease);
  ASSERT_EQ(old_release.grant_seq, 1u);
  net.pump();  // B leaves A's copyset

  (void)net['B'].request_lock(Mode::kIR);  // re-registered by grant 2
  net.pump();
  ASSERT_EQ(net['A'].child_mode(id_of('B')), Mode::kIR);
  // The release from B's first membership arrives again, late. It echoes
  // grant 1 < 2, so it must not erase the new registration.
  net['A'].handle(old_release);
  EXPECT_EQ(net['A'].child_mode(id_of('B')), Mode::kIR);
  EXPECT_EQ(net.bus.pending(), 0u);
  net['B'].unlock(net.acquired['B'].back().first);
  net['A'].unlock(ra);
  net.pump();
}

TEST(HlsEngine, ReparentDetachesFromOldParent) {
  Net net;
  net.add('A', 'A');
  net.add('B', 'A');
  net.add('C', 'A', {}, 'B');
  const RequestId ra = net['A'].request_lock(Mode::kR);
  (void)net['B'].request_lock(Mode::kR);
  net.pump();
  (void)net['C'].request_lock(Mode::kIR);  // granted by B
  net.pump();
  ASSERT_NE(net['B'].child_mode(id_of('C')), Mode::kNone);
  // C asks for R: B cannot grant (owned R not > R? grantable, actually R
  // >= R and compatible — so pick U which B cannot grant).
  (void)net['C'].request_lock(Mode::kU);
  net.pump();
  // The root served C (token transfer: R < U). C must have detached from
  // B; B's copyset may no longer carry a stale C entry.
  EXPECT_EQ(net['B'].child_mode(id_of('C')), Mode::kNone);
  net['A'].unlock(ra);
}

// ------------------------------------------------- queue ships w/ token --

TEST(HlsEngine, TokenTransferShipsQueueAndNewRootServesIt) {
  Net net;
  net.add('A', 'A');
  net.add('B', 'A');
  net.add('C', 'A');
  net.add('D', 'A');
  const RequestId ra = net['A'].request_lock(Mode::kIR);
  // C and D request W and R: W is incompatible with IR -> queued at A.
  (void)net['C'].request_lock(Mode::kW);
  net.pump();
  EXPECT_EQ(net['A'].queue().size(), 1u);
  (void)net['D'].request_lock(Mode::kR);  // frozen (IR,W freezes R) -> queued
  net.pump();
  EXPECT_EQ(net['A'].queue().size(), 2u);
  // A releases: tokenable(∅, W) -> token to C WITH the remaining queue.
  net['A'].unlock(ra);
  net.pump();
  ASSERT_EQ(net.acquired['C'].size(), 1u);
  EXPECT_TRUE(net['C'].is_token_node());
  EXPECT_EQ(net['C'].queue().size(), 1u);  // D's R traveled along
  net['C'].unlock(net.acquired['C'][0].first);
  net.pump();
  EXPECT_EQ(net.acquired['D'].size(), 1u);
}

// ------------------------------------------------------ misc API paths --

TEST(HlsEngine, TryRequestLockOnlySucceedsLocally) {
  Net net;
  net.add('A', 'A');
  net.add('B', 'A');
  EXPECT_TRUE(net['A'].try_request_lock(Mode::kW).has_value());
  EXPECT_FALSE(net['B'].try_request_lock(Mode::kIR).has_value());
  EXPECT_EQ(net.bus.total_sent(), 0u);
}

TEST(HlsEngine, DowngradeWeakensAndPropagates) {
  Net net;
  net.add('A', 'A');
  net.add('B', 'A');
  (void)net['B'].request_lock(Mode::kW);
  net.pump();
  const RequestId wb = net.acquired['B'][0].first;
  ASSERT_TRUE(net['B'].is_token_node());
  net['B'].downgrade(wb, Mode::kR);
  EXPECT_EQ(net['B'].holds().at(wb), Mode::kR);
  // A reader elsewhere can now share.
  (void)net['A'].request_lock(Mode::kR);
  net.pump();
  EXPECT_EQ(net.acquired['A'].size(), 1u);
  EXPECT_THROW(net['B'].downgrade(wb, Mode::kW), std::logic_error);
}

TEST(HlsEngine, ApiMisuseThrows) {
  Net net;
  net.add('A', 'A');
  EXPECT_THROW(net['A'].request_lock(Mode::kNone), std::invalid_argument);
  const RequestId id = net['A'].request_lock(Mode::kR);
  EXPECT_THROW(net['A'].upgrade(id), std::logic_error);  // not a U hold
  net['A'].unlock(id);
  EXPECT_THROW(net['A'].unlock(id), std::logic_error);  // double unlock
  Message wrong;
  wrong.lock = LockId{99};
  EXPECT_THROW(net['A'].handle(wrong), std::logic_error);
}

TEST(HlsEngine, BacklogServesLocalRequestsInIssueOrder) {
  Net net;
  net.add('A', 'A');
  net.add('B', 'A');
  // B issues three requests back to back; they must come through in order.
  (void)net['B'].request_lock(Mode::kIR);
  (void)net['B'].request_lock(Mode::kR);
  (void)net['B'].request_lock(Mode::kIR);
  EXPECT_EQ(net['B'].backlog_size(), 2u);
  net.pump();
  ASSERT_EQ(net.acquired['B'].size(), 3u);
  EXPECT_EQ(net.acquired['B'][0].second, Mode::kIR);
  EXPECT_EQ(net.acquired['B'][1].second, Mode::kR);
  EXPECT_EQ(net.acquired['B'][2].second, Mode::kIR);
}

// ---- RequestQueue: an engine's local queue ----------------------------------

QueuedRequest req(std::uint32_t node, Mode mode, std::uint64_t counter,
                  bool upgrade = false, std::uint8_t priority = 0) {
  return QueuedRequest{NodeId{node}, mode, LamportStamp{counter, NodeId{node}},
                       upgrade, priority};
}

std::vector<std::uint32_t> requesters(const RequestQueue& q) {
  std::vector<std::uint32_t> out;
  for (const QueuedRequest& r : q.entries()) out.push_back(r.requester.value);
  return out;
}

/// Table 2(b) union by a full scan, the definition the counts replace.
ModeSet frozen_by_scan(std::span<const QueuedRequest> entries, Mode owned) {
  ModeSet out;
  for (const QueuedRequest& r : entries) out |= frozen_for(owned, r.mode);
  return out;
}

ModeSet frozen_by_counts(const RequestQueue& q, Mode owned) {
  ModeSet out;
  for (const Mode m : kRealModes) {
    if (q.count(m) != 0) out |= frozen_for(owned, m);
  }
  return out;
}

TEST(RequestQueue, UpgradesClusterAtTheFrontInFifoOrder) {
  RequestQueue q;
  q.enqueue(req(1, Mode::kR, 1), false);
  q.enqueue(req(2, Mode::kW, 2, true), false);
  q.enqueue(req(3, Mode::kIR, 3), false);
  q.enqueue(req(4, Mode::kW, 4, true), false);
  EXPECT_EQ(requesters(q), (std::vector<std::uint32_t>{2, 4, 1, 3}));
  EXPECT_EQ(q.count(Mode::kW), 2u);
  EXPECT_EQ(q.count(Mode::kR), 1u);
  EXPECT_EQ(q.count(Mode::kIR), 1u);
  EXPECT_EQ(q.count(Mode::kU), 0u);
  EXPECT_TRUE(q.counts_consistent());
}

TEST(RequestQueue, PriorityPlacementIsPriorityThenStampBehindUpgrades) {
  RequestQueue q;
  q.enqueue(req(1, Mode::kR, 1, false, 0), true);
  q.enqueue(req(2, Mode::kR, 2, false, 5), true);
  q.enqueue(req(3, Mode::kR, 3, false, 5), true);
  q.enqueue(req(4, Mode::kW, 4, true, 0), true);
  q.enqueue(req(5, Mode::kR, 5, false, 9), true);
  EXPECT_EQ(requesters(q), (std::vector<std::uint32_t>{4, 5, 2, 3, 1}));
  // Without priority arbitration the same arrivals are FIFO.
  RequestQueue fifo;
  for (const QueuedRequest& r : {req(1, Mode::kR, 1, false, 0),
                                 req(2, Mode::kR, 2, false, 5),
                                 req(5, Mode::kR, 5, false, 9)})
    fifo.enqueue(r, false);
  EXPECT_EQ(requesters(fifo), (std::vector<std::uint32_t>{1, 2, 5}));
}

TEST(RequestQueue, TakeRemovesTheEntryAtAnIndex) {
  RequestQueue q;
  for (std::uint32_t i = 1; i <= 4; ++i) q.enqueue(req(i, Mode::kR, i), false);
  q.pop_front();
  EXPECT_EQ(q.take(1).requester, NodeId{3});
  EXPECT_EQ(requesters(q), (std::vector<std::uint32_t>{2, 4}));
  EXPECT_EQ(q.take(0).requester, NodeId{2});
  EXPECT_EQ(requesters(q), (std::vector<std::uint32_t>{4}));
  EXPECT_EQ(q.count(Mode::kR), 1u);
  EXPECT_TRUE(q.counts_consistent());
}

TEST(RequestQueue, HeadPopsSurviveCompaction) {
  RequestQueue q;
  for (std::uint32_t i = 1; i <= 6; ++i) q.enqueue(req(i, Mode::kIR, i), false);
  q.pop_front();
  q.pop_front();
  // A placement inside the queue compacts the dead prefix first.
  q.enqueue(req(7, Mode::kW, 7, true), false);
  EXPECT_EQ(requesters(q), (std::vector<std::uint32_t>{7, 3, 4, 5, 6}));
  for (int i = 0; i < 3; ++i) q.pop_front();
  // Three dead entries, two live: this append compacts.
  q.enqueue(req(8, Mode::kR, 8), false);
  EXPECT_EQ(requesters(q), (std::vector<std::uint32_t>{5, 6, 8}));
  EXPECT_EQ(q.front().requester, NodeId{5});
  EXPECT_EQ(q[2].requester, NodeId{8});
  EXPECT_EQ(q.count(Mode::kIR), 2u);
  EXPECT_EQ(q.count(Mode::kW), 0u);
  EXPECT_TRUE(q.counts_consistent());
  // Popping the last entry empties the queue and its counts.
  while (!q.empty()) q.pop_front();
  EXPECT_EQ(q.size(), 0u);
  EXPECT_EQ(q.count(Mode::kIR), 0u);
  EXPECT_EQ(q.count(Mode::kR), 0u);
}

TEST(RequestQueue, MergeIsStampOrderShippedFirstOnTiesUpgradesFirst) {
  RequestQueue q;
  // Local entries, one with a dead prefix in front of it.
  q.enqueue(req(9, Mode::kR, 1), false);
  q.enqueue(req(1, Mode::kR, 4), false);
  q.enqueue(req(2, Mode::kIW, 6), false);
  q.pop_front();
  // A shipped entry with exactly the stamp of local entry 1 (counter 4,
  // node 1) but another requester shows which side wins the tie.
  QueuedRequest twin = req(1, Mode::kIR, 4);
  twin.requester = NodeId{5};
  const std::vector<QueuedRequest> shipped = {
      req(3, Mode::kW, 2, true), req(4, Mode::kR, 3), twin,
      req(6, Mode::kU, 7)};
  q.merge_shipped(shipped, false);
  EXPECT_EQ(requesters(q), (std::vector<std::uint32_t>{3, 4, 5, 1, 2, 6}));
  EXPECT_EQ(q.count(Mode::kR), 2u);
  EXPECT_EQ(q.count(Mode::kW), 1u);
  EXPECT_TRUE(q.counts_consistent());

  std::vector<QueuedRequest> out = {req(99, Mode::kW, 99)};
  q.ship_into(out);
  ASSERT_EQ(out.size(), 6u);
  EXPECT_EQ(out.front().requester, NodeId{3});
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.count(Mode::kR), 0u);
}

TEST(RequestQueue, EraseRequesterAndRetainKeepOrderAndCounts) {
  RequestQueue q;
  q.enqueue(req(1, Mode::kR, 1), false);
  q.enqueue(req(2, Mode::kW, 2), false);
  q.enqueue(req(1, Mode::kIR, 3), false);
  q.enqueue(req(3, Mode::kU, 4), false);
  q.pop_front();
  q.erase_requester(NodeId{1});
  EXPECT_EQ(requesters(q), (std::vector<std::uint32_t>{2, 3}));
  EXPECT_EQ(q.count(Mode::kIR), 0u);
  std::vector<std::uint32_t> visited;
  q.retain_if([&](const QueuedRequest& r) {
    visited.push_back(r.requester.value);
    return r.mode == Mode::kU;
  });
  EXPECT_EQ(visited, (std::vector<std::uint32_t>{2, 3}));
  EXPECT_EQ(requesters(q), (std::vector<std::uint32_t>{3}));
  EXPECT_EQ(q.count(Mode::kW), 0u);
  EXPECT_EQ(q.count(Mode::kU), 1u);
}

// Differential test against the plain-vector queue the engine used before:
// random mixes of every mutation must leave the same entries in the same
// order, counts equal to the contents, and the O(1) Rule 6 union equal to
// the full scan for every owned mode. The model merges by a stable sort of
// the whole queue; merge_shipped must match it both when it merges two
// sorted runs and when a run is out of order and it sorts.
TEST(RequestQueue, MatchesAPlainVectorModel) {
  for (const bool by_priority : {false, true}) {
    Rng rng(by_priority ? 17 : 11);
    RequestQueue q;
    std::vector<QueuedRequest> model;
    std::uint64_t clock = 0;
    int interleaving_merges = 0;  // both runs sorted, concatenation not
    int unsorted_merges = 0;      // a run out of order
    const auto random_request = [&] {
      // Mode 0 (kNone) is rare but legal on the wire; it freezes nothing.
      const auto mode = static_cast<Mode>(rng.next_below(20) == 0
                                              ? 0
                                              : 1 + rng.next_below(5));
      // Reused counters make stamp ties between different requesters.
      clock += rng.next_below(3);
      return req(static_cast<std::uint32_t>(rng.next_below(8)), mode, clock,
                 rng.next_below(8) == 0,
                 static_cast<std::uint8_t>(rng.next_below(3)));
    };
    const auto model_enqueue = [&](const QueuedRequest& r) {
      auto it = model.begin();
      while (it != model.end() && it->upgrade) ++it;
      if (!r.upgrade) {
        if (by_priority) {
          while (it != model.end() && !priority_before(r, *it)) ++it;
        } else {
          it = model.end();
        }
      }
      model.insert(it, r);
    };
    const auto before = [&](const QueuedRequest& a, const QueuedRequest& b) {
      return by_priority ? priority_before(a, b) : a.stamp < b.stamp;
    };
    for (int step = 0; step < 4000; ++step) {
      const std::uint64_t op = rng.next_below(100);
      if (op < 45) {
        const QueuedRequest r = random_request();
        q.enqueue(r, by_priority);
        model_enqueue(r);
      } else if (op < 75) {
        if (!model.empty()) {
          q.pop_front();
          model.erase(model.begin());
        }
      } else if (op < 82) {
        if (!model.empty()) {
          const std::size_t i = rng.next_below(model.size());
          EXPECT_EQ(q.take(i), model[i]);
          model.erase(model.begin() + static_cast<std::ptrdiff_t>(i));
        }
      } else if (op < 90) {
        std::vector<QueuedRequest> shipped;
        const std::uint64_t n = rng.next_below(6);
        for (std::uint64_t k = 0; k < n; ++k)
          shipped.push_back(random_request());
        // A shipped queue is usually in order; one with upgrades at its
        // front, as the token node keeps it, need not be.
        if (rng.next_below(4) != 0)
          std::stable_sort(shipped.begin(), shipped.end(), before);
        const bool runs_sorted =
            std::is_sorted(shipped.begin(), shipped.end(), before) &&
            std::is_sorted(model.begin(), model.end(), before);
        if (!runs_sorted) {
          ++unsorted_merges;
        } else if (!shipped.empty() && !model.empty() &&
                   before(model.front(), shipped.back())) {
          ++interleaving_merges;
        }
        q.merge_shipped(shipped, by_priority);
        model.insert(model.begin(), shipped.begin(), shipped.end());
        std::stable_sort(model.begin(), model.end(), before);
        std::stable_partition(model.begin(), model.end(),
                              [](const QueuedRequest& r) { return r.upgrade; });
      } else if (op < 95) {
        const NodeId who{static_cast<std::uint32_t>(rng.next_below(8))};
        q.erase_requester(who);
        std::erase_if(model, [&](const QueuedRequest& r) {
          return r.requester == who;
        });
      } else if (op < 99) {
        const auto keep = [](const QueuedRequest& r) {
          return r.mode != Mode::kW;
        };
        q.retain_if(keep);
        std::erase_if(model, [&](const QueuedRequest& r) { return !keep(r); });
      } else {
        std::vector<QueuedRequest> out;
        q.ship_into(out);
        EXPECT_EQ(out, model);
        model.clear();
      }
      const std::span<const QueuedRequest> got = q.entries();
      ASSERT_TRUE(std::equal(got.begin(), got.end(), model.begin(),
                             model.end()))
          << "step " << step;
      ASSERT_EQ(q.size(), model.size());
      ASSERT_TRUE(q.counts_consistent()) << "step " << step;
      for (const Mode m : kRealModes) {
        ASSERT_EQ(q.count(m), static_cast<std::uint32_t>(std::count_if(
                                  model.begin(), model.end(),
                                  [m](const QueuedRequest& r) {
                                    return r.mode == m;
                                  })));
      }
      for (int owned = 0; owned < kModeCount; ++owned) {
        ASSERT_EQ(frozen_by_counts(q, static_cast<Mode>(owned)),
                  frozen_by_scan(model, static_cast<Mode>(owned)))
            << "step " << step << " owned " << owned;
      }
    }
    EXPECT_GT(interleaving_merges, 0);
    EXPECT_GT(unsorted_merges, 0);
  }
}

}  // namespace
}  // namespace hlock::core
