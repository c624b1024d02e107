// Simulated point-to-point network: full-duplex, switch with disjoint
// parallel paths (as in the paper's testbed), per-message random latency,
// per-(from,to) FIFO channel ordering.
//
// Hot-path design: node ids in a cluster are dense (0..n-1), so handler
// dispatch and the per-channel FIFO clock are flat vectors indexed by id
// instead of std::map lookups; per-kind message counts are a fixed array
// indexed by MsgKind; and wire bytes are accounted arithmetically via
// encoded_size() instead of serializing every message.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "msg/message.hpp"
#include "sim/latency.hpp"
#include "sim/simulator.hpp"

namespace hlock::sim {

class LinkLayer;  // sim/links.hpp

/// Delivers Messages between registered node handlers through the event
/// queue, counting every send by message kind (the Figure 7 breakdown).
class SimNetwork {
 public:
  SimNetwork(Simulator& simulator, std::unique_ptr<LatencyModel> latency,
             Rng rng);
  ~SimNetwork();

  /// Register the receive handler for `node`. Must be called once per node
  /// before any message is sent to it.
  void register_node(NodeId node,
                     std::function<void(const Message&)> handler);

  /// Send `m` from `from` to `to`; delivered after a sampled latency.
  /// Messages on the same (from, to) channel are never reordered, matching
  /// TCP semantics on the paper's testbed.
  void send(NodeId from, NodeId to, Message m);

  /// Switch to the TCP failure model: each transmission is dropped with
  /// probability `rate`, which resets its node pair's connection, and
  /// every node runs the live transport's delivery layer (links()) over
  /// those connections, so each message still arrives once, in order.
  /// Call before the first send.
  void set_lossy(double rate);
  /// The delivery layer; null unless set_lossy was called.
  [[nodiscard]] LinkLayer* links() { return links_.get(); }

  [[nodiscard]] std::uint64_t messages_dropped() const { return dropped_; }

  /// Per-kind counts as a named CounterMap (built on demand from the
  /// internal array; kinds never sent are omitted, and get() on a missing
  /// key returns 0 as before).
  [[nodiscard]] CounterMap message_counts() const;
  /// O(1) per-kind count.
  [[nodiscard]] std::uint64_t message_count(MsgKind kind) const {
    return counts_[static_cast<std::size_t>(kind)];
  }
  [[nodiscard]] std::uint64_t messages_sent() const { return sent_; }
  /// Pass-through to the simulator's Message::queue buffer pool (see
  /// Simulator::acquire_queue_buffer).
  [[nodiscard]] std::vector<QueuedRequest> acquire_queue_buffer() {
    return sim_.acquire_queue_buffer();
  }
  /// Serialized size of everything sent (wire bytes, as the real codec
  /// would frame it), including dropped messages.
  [[nodiscard]] std::uint64_t bytes_sent() const { return bytes_; }
  [[nodiscard]] Duration latency_mean() const { return latency_->mean(); }

  /// Clustered-topology accounting: every send is classified as intra- or
  /// cross-cluster by `map` (borrowed; must outlive the network) and
  /// counted into the O(1) boundary counters below — the same fixed-array
  /// style as the per-kind counters. Without a map the counters stay zero
  /// (flat runs carry no topology split, keeping their output unchanged).
  void set_topology(const ClusterMap* map) { topology_ = map; }
  [[nodiscard]] const ClusterMap* topology() const { return topology_; }
  [[nodiscard]] std::uint64_t intra_cluster_messages() const {
    return boundary_counts_[0];
  }
  [[nodiscard]] std::uint64_t cross_cluster_messages() const {
    return boundary_counts_[1];
  }
  [[nodiscard]] std::uint64_t intra_cluster_bytes() const {
    return boundary_bytes_[0];
  }
  [[nodiscard]] std::uint64_t cross_cluster_bytes() const {
    return boundary_bytes_[1];
  }

  /// Observation hook invoked on every delivery off the wire (before the
  /// handler or the delivery layer).
  std::function<void(NodeId from, NodeId to, const Message&)> on_deliver;
  /// Observation hook invoked on every transmission (`dropped` says
  /// whether lossy mode dropped it).
  std::function<void(NodeId from, NodeId to, const Message&, bool dropped)>
      on_send;

 private:
  friend class LinkLayer;
  /// Put `m` on the wire; false when lossy mode dropped it.
  bool transmit(NodeId from, NodeId to, Message m);
  /// Simulator deliver-event trampoline (ctx is the SimNetwork).
  static void deliver_event(void* ctx, NodeId from, NodeId to, Message& m);
  /// Grow the channel-clock matrix to cover ids < n.
  void grow_stride(std::size_t n);

  Simulator& sim_;
  std::unique_ptr<LatencyModel> latency_;
  Rng rng_;
  /// Receive handlers, indexed by NodeId value (empty = unregistered).
  std::vector<std::function<void(const Message&)>> handlers_;
  /// Earliest time the next message on channel (from, to) may arrive
  /// (FIFO): a stride_ x stride_ row-major matrix indexed by id.
  std::vector<TimePoint> channel_clear_;
  std::size_t stride_{0};
  /// Per-kind send counts, indexed by MsgKind.
  std::array<std::uint64_t, kMsgKindCount> counts_{};
  std::uint64_t sent_{0};
  double loss_rate_{0.0};
  std::uint64_t dropped_{0};
  std::uint64_t bytes_{0};
  /// Boundary accounting, indexed [0]=intra-cluster, [1]=cross-cluster,
  /// live only when topology_ is set (like bytes_, dropped messages are
  /// included — they were sent).
  const ClusterMap* topology_{nullptr};
  std::array<std::uint64_t, 2> boundary_counts_{};
  std::array<std::uint64_t, 2> boundary_bytes_{};
  std::unique_ptr<LinkLayer> links_;
};

/// Per-node Transport facade over SimNetwork.
class SimTransport final : public Transport {
 public:
  SimTransport(SimNetwork& net, NodeId self) : net_(net), self_(self) {}
  void send(NodeId to, Message m) override {
    net_.send(self_, to, std::move(m));
  }
  std::vector<QueuedRequest> acquire_queue_buffer() override {
    return net_.acquire_queue_buffer();
  }

 private:
  SimNetwork& net_;
  NodeId self_;
};

}  // namespace hlock::sim
