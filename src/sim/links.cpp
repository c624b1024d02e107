#include "sim/links.hpp"

#include <utility>

namespace hlock::sim {

namespace {

std::uint64_t directed(NodeId self, NodeId peer) {
  return (static_cast<std::uint64_t>(self.value) << 32) | peer.value;
}

std::uint64_t pair_key(NodeId a, NodeId b) {
  return a.value < b.value ? directed(a, b) : directed(b, a);
}

}  // namespace

LinkLayer::LinkLayer(SimNetwork& net)
    : net_(net), reconnect_delay_(2 * net.latency_mean()) {}

bool LinkLayer::down(NodeId a, NodeId b) const {
  return down_.contains(pair_key(a, b));
}

void LinkLayer::send(NodeId from, NodeId to, Message m) {
  const bool up = !down(from, to);
  const PeerLink::Pending& p =
      links_[directed(from, to)].accept(std::move(m), up);
  if (up) transmit(from, to, p);
}

bool LinkLayer::put(NodeId from, NodeId to, Message m) {
  if (net_.transmit(from, to, std::move(m))) return true;
  down_.insert(pair_key(from, to));
  net_.sim_.schedule_after(reconnect_delay_, [this, from, to] {
    reconnect(from, to);
  });
  return false;
}

bool LinkLayer::transmit(NodeId from, NodeId to, const PeerLink::Pending& p) {
  Message wire = p.msg;
  wire.rel_seq = p.seq;
  return put(from, to, std::move(wire));
}

bool LinkLayer::send_ack(NodeId self, NodeId peer, PeerLink& link) {
  Message ack;
  ack.kind = MsgKind::kAck;
  ack.rel_seq = link.take_ack();
  return put(self, peer, std::move(ack));
}

void LinkLayer::receive(NodeId self, const Message& m) {
  const NodeId peer = m.from;
  PeerLink& link = links_[directed(self, peer)];
  if (m.kind == MsgKind::kAck) {
    link.on_ack(m.rel_seq);
    return;
  }
  const PeerLink::Arrival arrival = link.on_data(m.rel_seq);
  if (!down(self, peer)) send_ack(self, peer, link);  // else owed till up
  if (arrival == PeerLink::Arrival::kDuplicate) {
    ++dups_;
    return;
  }
  if (on_deliver) on_deliver(peer, self, m);
  net_.handlers_[self.value](m);
}

void LinkLayer::reconnect(NodeId a, NodeId b) {
  down_.erase(pair_key(a, b));
  const std::pair<NodeId, NodeId> ends[] = {{a, b}, {b, a}};
  // Both owed acks leave before either window: a window too long to cross
  // without a reset then still drains, a few entries per reconnect.
  for (const auto& [self, peer] : ends) {
    PeerLink& link = links_[directed(self, peer)];
    if (link.ack_due() && !send_ack(self, peer, link)) return;
  }
  for (const auto& [self, peer] : ends) {
    PeerLink& link = links_[directed(self, peer)];
    retx_ += link.connection_up();
    for (const PeerLink::Pending& p : link.window()) {
      if (!transmit(self, peer, p)) return;
    }
  }
}

std::size_t LinkLayer::unacked() const {
  std::size_t n = 0;
  for (const auto& [key, link] : links_) n += link.unacked();
  return n;
}

}  // namespace hlock::sim
