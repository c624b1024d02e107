// PeerLink, the reliable-delivery state machine both transports run, driven
// call by call: no sockets, clocks or threads, so every corner the live
// layer once hit only by timing is pinned deterministically here.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <vector>

#include "msg/peer_link.hpp"

namespace hlock {
namespace {

using Arrival = PeerLink::Arrival;

Message tagged(std::uint32_t i) {
  Message m;
  m.kind = MsgKind::kRequest;
  m.lock = LockId{i};
  return m;
}

std::vector<std::uint64_t> seqs(const PeerLink& link) {
  std::vector<std::uint64_t> out;
  for (const PeerLink::Pending& p : link.window()) out.push_back(p.seq);
  return out;
}

TEST(PeerLink, CumulativeAckTrimsThePrefixAndReturnsTheCount) {
  PeerLink link;
  for (std::uint32_t i = 0; i < 5; ++i) {
    EXPECT_EQ(link.accept(tagged(i), true).seq, i + 1u);
  }
  EXPECT_EQ(link.on_ack(3), 3u);
  EXPECT_EQ(seqs(link), (std::vector<std::uint64_t>{4, 5}));
  EXPECT_EQ(link.window().front().msg.lock.value, 3u);
  EXPECT_EQ(link.on_ack(2), 0u) << "an older cumulative ack trims nothing";
  EXPECT_EQ(link.on_ack(0), 0u) << "ack 0 carries no information";
  EXPECT_EQ(link.on_ack(9), 2u);
  EXPECT_EQ(link.unacked(), 0u);
  EXPECT_EQ(link.accept(tagged(5), true).seq, 6u) << "numbering continues";
}

TEST(PeerLink, ConnectionUpResendsTheWindowAndCountsOnlyRequeues) {
  PeerLink link;
  link.accept(tagged(0), true);   // went out on the old connection
  link.accept(tagged(1), false);  // accepted while down: first send pending
  EXPECT_EQ(link.connection_up(), 1u);
  EXPECT_EQ(seqs(link), (std::vector<std::uint64_t>{1, 2}));
  EXPECT_EQ(link.connection_up(), 2u) << "both went out on the last one";
}

// The rule the multi-megabyte resend livelock broke: the peer's whole
// window comes back as duplicates after a reconnect, and only an ack for
// them lets it drain. Dropping duplicates without acking resends forever.
TEST(PeerLink, ResentWindowOfOnlyDuplicatesStillLeavesAnAckDue) {
  PeerLink tx;
  PeerLink rx;
  for (std::uint32_t i = 0; i < 3; ++i) tx.accept(tagged(i), true);
  for (std::uint64_t seq = 1; seq <= 3; ++seq) {
    EXPECT_EQ(rx.on_data(seq), Arrival::kDeliver);
  }
  EXPECT_TRUE(rx.ack_due());
  EXPECT_EQ(rx.take_ack(), 3u);  // ...and this ack dies with the link
  EXPECT_FALSE(rx.ack_due());

  EXPECT_EQ(tx.connection_up(), 3u);
  EXPECT_EQ(rx.connection_up(), 0u);
  EXPECT_FALSE(rx.ack_due());
  for (const PeerLink::Pending& p : tx.window()) {
    EXPECT_EQ(rx.on_data(p.seq), Arrival::kDuplicate);
  }
  ASSERT_TRUE(rx.ack_due()) << "duplicates must still be acked";
  EXPECT_EQ(tx.on_ack(rx.take_ack()), 3u);
  EXPECT_EQ(tx.unacked(), 0u);
}

// An ack owed on a dead connection must not be stamped into anything sent
// on the next one before the peer's hello: that hello may announce a
// restart, and the old incarnation's ack would trim the new one's window.
TEST(PeerLink, ConnectionUpVoidsAnAckOwedOnTheOldConnection) {
  PeerLink link;
  link.on_hello(11);
  EXPECT_EQ(link.on_data(1), Arrival::kDeliver);
  EXPECT_EQ(link.on_data(2), Arrival::kDeliver);
  ASSERT_TRUE(link.ack_due());
  link.connection_up();
  EXPECT_FALSE(link.ack_due());
  EXPECT_EQ(link.delivered_seq(), 2u) << "dedup state survives the link";
  EXPECT_EQ(link.on_data(2), Arrival::kDuplicate);
}

TEST(PeerLink, NewEpochResetsTheReceiveSideOnceAndSameEpochNever) {
  PeerLink link;
  EXPECT_FALSE(link.on_hello(7)) << "the first hello only records the epoch";
  EXPECT_EQ(link.on_data(1), Arrival::kDeliver);
  EXPECT_EQ(link.on_data(2), Arrival::kDeliver);

  EXPECT_FALSE(link.on_hello(7)) << "a reconnect of the same process";
  EXPECT_EQ(link.delivered_seq(), 2u);
  EXPECT_EQ(link.on_data(2), Arrival::kDuplicate);

  EXPECT_TRUE(link.on_hello(9)) << "the peer restarted";
  EXPECT_EQ(link.delivered_seq(), 0u);
  EXPECT_FALSE(link.ack_due());
  EXPECT_EQ(link.epoch(), 9u);
  EXPECT_EQ(link.on_data(1), Arrival::kDeliver)
      << "the new incarnation's seq 1 is not a duplicate";

  EXPECT_FALSE(link.on_hello(9)) << "its next reconnect resets nothing";
  EXPECT_EQ(link.delivered_seq(), 1u);
  EXPECT_EQ(link.on_data(1), Arrival::kDuplicate);
}

// This node restarted and the peer did not: the peer's window continues
// from its old numbering, which a fresh link has never seen.
TEST(PeerLink, GapAfterOwnRestartIsDelivered) {
  PeerLink fresh;
  EXPECT_EQ(fresh.on_data(5), Arrival::kGap);
  EXPECT_EQ(fresh.delivered_seq(), 5u);
  EXPECT_TRUE(fresh.ack_due());
  EXPECT_EQ(fresh.on_data(6), Arrival::kDeliver);
  EXPECT_EQ(fresh.on_data(5), Arrival::kDuplicate);
}

// TcpNode keeps one link per peer and a running total of unacked sends;
// forgetting a peer destroys its link, and the total drops by its window.
TEST(PeerLink, ForgetDropsTheUnackedCount) {
  std::map<std::uint32_t, PeerLink> links;
  std::size_t total = 0;
  const auto send = [&](std::uint32_t peer, std::uint32_t tag) {
    links[peer].accept(tagged(tag), false);
    ++total;
  };
  send(1, 0);
  send(1, 1);
  send(1, 2);
  send(2, 3);
  total -= links[1].unacked();
  links.erase(1);
  EXPECT_EQ(total, 1u);
  EXPECT_EQ(links[1].accept(tagged(4), false).seq, 1u)
      << "a later incarnation of the id starts fresh";
}

// Deterministic twin of the send-window cap accounting that
// TcpFaults.SendWindowCapRejectsThenDrainsOverLiveSocket drives over a
// socket: sends past the cap are refused without joining the window, and
// an ack frees exactly as many slots as it trimmed.
TEST(PeerLink, WindowCapRejectsThenFreesExactlyTheTrimmedCount) {
  constexpr std::size_t kCap = 2;
  PeerLink tx;
  PeerLink rx;
  std::size_t pending = 0;
  std::size_t rejected = 0;
  const auto send = [&](std::uint32_t tag) {
    if (pending >= kCap) {
      ++rejected;
      return false;
    }
    ++pending;
    tx.accept(tagged(tag), false);  // the peer is down
    return true;
  };
  EXPECT_TRUE(send(1));
  EXPECT_TRUE(send(2));
  EXPECT_FALSE(send(3));
  EXPECT_FALSE(send(4));
  EXPECT_EQ(rejected, 2u);
  EXPECT_EQ(tx.unacked(), 2u);

  // The peer comes up: the two accepted sends go out once, arrive, and
  // their cumulative ack frees both slots.
  EXPECT_EQ(tx.connection_up(), 0u) << "never sent before: no requeues";
  std::vector<std::uint32_t> got;
  for (const PeerLink::Pending& p : tx.window()) {
    if (rx.on_data(p.seq) != Arrival::kDuplicate)
      got.push_back(p.msg.lock.value);
  }
  const std::size_t trimmed = tx.on_ack(rx.take_ack());
  EXPECT_EQ(trimmed, 2u);
  pending -= trimmed;
  EXPECT_EQ(pending, 0u);
  EXPECT_TRUE(send(5));
  EXPECT_EQ(tx.window().back().seq, 3u) << "rejected sends used no seq";
  EXPECT_EQ(rx.on_data(tx.window().back().seq), Arrival::kDeliver);
  got.push_back(tx.window().back().msg.lock.value);
  EXPECT_EQ(got, (std::vector<std::uint32_t>{1, 2, 5}));
  EXPECT_EQ(tx.on_ack(rx.take_ack()), 1u);
}

}  // namespace
}  // namespace hlock
