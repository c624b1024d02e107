// Shared test scaffolding: an in-memory message bus with manual,
// inspectable delivery for deterministic protocol unit tests, and a
// factory for engines driven over it without an HlsNode.
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/cluster_map.hpp"
#include "common/types.hpp"
#include "core/hls_engine.hpp"
#include "msg/message.hpp"

namespace hlock::testing {

/// Synchronous test bus: send() enqueues, the test decides when (and in
/// which order) messages are delivered. Lets unit tests reproduce exact
/// message interleavings, including the paper's worked examples.
class TestBus {
 public:
  class Port final : public Transport {
   public:
    Port(TestBus& bus, NodeId self) : bus_(bus), self_(self) {}
    void send(NodeId to, Message m) override {
      m.from = self_;
      bus_.by_kind_[m.kind]++;
      bus_.queue_.push_back({self_, to, std::move(m)});
      ++bus_.total_sent_;
    }

   private:
    TestBus& bus_;
    NodeId self_;
  };

  struct InFlight {
    NodeId from;
    NodeId to;
    Message msg;
  };

  Port& port(NodeId id) {
    auto it = ports_.find(id);
    if (it == ports_.end()) {
      it = ports_.emplace(id, std::make_unique<Port>(*this, id)).first;
    }
    return *it->second;
  }

  void register_handler(NodeId id, std::function<void(const Message&)> fn) {
    handlers_[id] = std::move(fn);
  }

  [[nodiscard]] std::size_t pending() const { return queue_.size(); }
  [[nodiscard]] const std::deque<InFlight>& in_flight() const {
    return queue_;
  }
  [[nodiscard]] std::uint64_t total_sent() const { return total_sent_; }
  [[nodiscard]] std::uint64_t sent(MsgKind kind) const {
    const auto it = by_kind_.find(kind);
    return it == by_kind_.end() ? 0 : it->second;
  }

  /// Deliver the oldest in-flight message. Returns false when none remain.
  bool deliver_one() {
    if (queue_.empty()) return false;
    InFlight f = std::move(queue_.front());
    queue_.pop_front();
    const auto it = handlers_.find(f.to);
    if (it == handlers_.end())
      throw std::logic_error("message to node without handler");
    it->second(f.msg);
    return true;
  }

  /// Deliver message at `index` out of order (reordering tests).
  void deliver_at(std::size_t index) {
    if (index >= queue_.size()) throw std::out_of_range("no such message");
    InFlight f = std::move(queue_[index]);
    queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(index));
    handlers_.at(f.to)(f.msg);
  }

  /// Deliver until the bus is empty (with a runaway guard).
  void deliver_all(std::size_t cap = 100000) {
    std::size_t n = 0;
    while (deliver_one()) {
      if (++n > cap) throw std::runtime_error("test bus livelock");
    }
  }

  /// Deliver the oldest message of a RANDOMLY chosen channel. Randomizes
  /// cross-channel interleavings while preserving the per-channel FIFO
  /// the protocol assumes. Returns false when nothing is in flight.
  template <typename RngT>
  bool deliver_random(RngT& rng) {
    if (queue_.empty()) return false;
    // Collect the first (oldest) index of every live channel.
    std::vector<std::size_t> heads;
    std::vector<std::pair<NodeId, NodeId>> seen;
    for (std::size_t i = 0; i < queue_.size(); ++i) {
      const auto channel = std::make_pair(queue_[i].from, queue_[i].to);
      bool first = true;
      for (const auto& s : seen) {
        if (s == channel) {
          first = false;
          break;
        }
      }
      if (first) {
        seen.push_back(channel);
        heads.push_back(i);
      }
    }
    deliver_at(heads[rng.next_below(heads.size())]);
    return true;
  }

 private:
  friend class Port;
  std::deque<InFlight> queue_;
  std::map<NodeId, std::unique_ptr<Port>> ports_;
  std::map<NodeId, std::function<void(const Message&)>> handlers_;
  std::map<MsgKind, std::uint64_t> by_kind_;
  std::uint64_t total_sent_{0};
};

/// Builds standalone HlsEngines (lock 0) for fixtures that drive single
/// engines over a bus instead of through core::HlsNode. Each engine gets
/// its own per-node EngineContext, kept here at a stable address: declare
/// the factory before the engines it builds, so it outlives them.
class EngineFactory {
 public:
  using AcquiredFn = std::function<void(RequestId, Mode)>;
  using UpgradedFn = std::function<void(RequestId)>;

  std::unique_ptr<core::HlsEngine> make(
      NodeId self, NodeId root, Transport& transport,
      core::EngineOptions opts = {}, AcquiredFn on_acquired = {},
      UpgradedFn on_upgraded = {}, NodeId parent = NodeId::invalid(),
      const ClusterMap* clusters = nullptr) {
    core::EngineContext& ctx = contexts_.emplace_back(self, transport, opts);
    ctx.clusters = clusters;
    if (on_acquired) {
      ctx.on_acquired = [fn = std::move(on_acquired)](
                            LockId, RequestId id, Mode mode) {
        fn(id, mode);
      };
    }
    if (on_upgraded) {
      ctx.on_upgraded = [fn = std::move(on_upgraded)](LockId, RequestId id) {
        fn(id);
      };
    }
    return std::make_unique<core::HlsEngine>(ctx, LockId{0}, root, parent);
  }

 private:
  std::deque<core::EngineContext> contexts_;
};

}  // namespace hlock::testing
