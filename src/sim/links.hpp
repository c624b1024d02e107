// LinkLayer — the simulator's binding of PeerLink (msg/peer_link.hpp), so a
// lossy SimNetwork runs the live transport's delivery layer. SimNetwork
// owns one from set_lossy on and routes every send and arrival through it.
//
// The failure model is TCP's: every transmission the network drops resets
// the connection between the two nodes. Messages already in flight still
// arrive, but nothing leaves on the pair until it reconnects one mean
// round trip later: sends wait in the window and acks are owed. On
// reconnect both ends send the ack they owe, then resend their windows.
// Every arrival on a live pair is answered with a cumulative kAck;
// Message::rel_seq carries the seq on data and the ack on kAck. Channels
// stay FIFO, so a resent window is the only reordering.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>

#include "common/flat_map.hpp"
#include "msg/peer_link.hpp"
#include "sim/simnet.hpp"

namespace hlock::sim {

class LinkLayer {
 public:
  explicit LinkLayer(SimNetwork& net);

  /// Node `from` sends `m` to `to`.
  void send(NodeId from, NodeId to, Message m);
  /// A transmission arrived at `self` off the wire.
  void receive(NodeId self, const Message& m);

  /// Observation hook on every delivery up to a node, before its handler;
  /// m.rel_seq is the message's sequence number on the (from, to) link.
  std::function<void(NodeId from, NodeId to, const Message&)> on_deliver;

  /// Window entries sent again on a fresh connection.
  [[nodiscard]] std::uint64_t retransmissions() const { return retx_; }
  /// Data arrivals dropped as already delivered (and re-acked).
  [[nodiscard]] std::uint64_t duplicates_dropped() const { return dups_; }
  /// Sends still awaiting an ack (0 at quiescence).
  [[nodiscard]] std::size_t unacked() const;

 private:
  /// Transmit; false if the network dropped it, which resets the pair.
  bool put(NodeId from, NodeId to, Message m);
  bool transmit(NodeId from, NodeId to, const PeerLink::Pending& p);
  bool send_ack(NodeId self, NodeId peer, PeerLink& link);
  void reconnect(NodeId a, NodeId b);
  [[nodiscard]] bool down(NodeId a, NodeId b) const;

  SimNetwork& net_;
  const Duration reconnect_delay_;
  /// Keyed (self << 32 | peer). A std::map: a reference to one link
  /// survives the inserts a delivery's replies make.
  std::map<std::uint64_t, PeerLink> links_;
  /// Pairs whose connection is reset, keyed (low << 32 | high).
  FlatSet<std::uint64_t> down_;
  std::uint64_t retx_{0};
  std::uint64_t dups_{0};
};

}  // namespace hlock::sim
