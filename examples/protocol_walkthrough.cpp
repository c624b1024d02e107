// Protocol walkthrough: replays the paper's two worked examples step by
// step with a synchronous in-memory bus, printing every node's
// (owned, held, pending) tuple after each step — the same notation as
// Figures 2 and 3.
//
//   $ ./protocol_walkthrough
//
// Example 1 (Figure 2): release absorption, request queuing at a child,
// copy grants cascading from a fresh grant.
// Example 2 (Figure 3): mode freezing — a queued R request freezes IW at
// the token node so subsequent IW requests cannot starve it.
#include <deque>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <vector>

#include "core/hls_engine.hpp"

using namespace hlock;
using core::HlsEngine;

namespace {

/// Minimal synchronous bus: messages queue until pump() delivers them.
class Bus {
 public:
  class Port final : public Transport {
   public:
    Port(Bus& bus, NodeId self) : bus_(bus), self_(self) {}
    void send(NodeId to, Message m) override {
      m.from = self_;
      bus_.queue_.push_back({to, std::move(m)});
    }

   private:
    Bus& bus_;
    NodeId self_;
  };

  Port& port(NodeId id) {
    auto it = ports_.find(id);
    if (it == ports_.end())
      it = ports_.emplace(id, std::make_unique<Port>(*this, id)).first;
    return *it->second;
  }

  void register_engine(NodeId id, HlsEngine* engine) { engines_[id] = engine; }

  void pump() {
    while (!queue_.empty()) {
      auto [to, msg] = std::move(queue_.front());
      queue_.pop_front();
      std::cout << "    [" << msg.from << " -> " << to << "  "
                << to_string(msg.kind);
      if (msg.kind == MsgKind::kRequest)
        std::cout << " {" << msg.req.requester << "," << msg.req.mode << "}";
      if (msg.kind == MsgKind::kGrant || msg.kind == MsgKind::kToken)
        std::cout << " " << msg.mode;
      if (msg.kind == MsgKind::kFreeze)
        std::cout << " " << msg.frozen.to_string();
      std::cout << "]\n";
      engines_.at(to)->handle(msg);
    }
  }

 private:
  std::deque<std::pair<NodeId, Message>> queue_;
  std::map<NodeId, std::unique_ptr<Port>> ports_;
  std::map<NodeId, HlsEngine*> engines_;
};

struct Cluster {
  /// `parents` optionally shapes the initial tree (node -> parent); nodes
  /// not listed start pointing at the token holder.
  Cluster(std::vector<char> names, char token_holder,
          std::map<char, char> parents = {}) {
    for (const char c : names) ids.push_back(NodeId{std::uint32_t(c - 'A')});
    for (std::size_t i = 0; i < names.size(); ++i) {
      labels[ids[i]] = names[i];
      NodeId initial_parent = NodeId::invalid();
      const auto it = parents.find(names[i]);
      if (it != parents.end())
        initial_parent = NodeId{std::uint32_t(it->second - 'A')};
      const core::EngineContext& ctx =
          contexts.emplace_back(ids[i], bus.port(ids[i]));
      engines.emplace(ids[i], std::make_unique<HlsEngine>(
                                  ctx, LockId{0},
                                  NodeId{std::uint32_t(token_holder - 'A')},
                                  initial_parent));
      bus.register_engine(ids[i], engines.at(ids[i]).get());
    }
  }

  HlsEngine& at(char c) { return *engines.at(NodeId{std::uint32_t(c - 'A')}); }

  void show(const std::string& caption) {
    std::cout << "  " << caption << "\n";
    for (const NodeId id : ids) {
      const HlsEngine& e = *engines.at(id);
      std::cout << "    " << labels.at(id) << "("
                << e.owned_mode() << "," << e.held_mode() << ","
                << (e.has_pending() ? "P" : "0") << ")"
                << (e.is_token_node() ? " [token]" : "");
      if (e.copyset_size() != 0) {
        std::cout << " children{";
        e.for_each_child([&](NodeId c, Mode m) {
          std::cout << labels.at(c) << ":" << m << " ";
        });
        std::cout << "}";
      }
      if (!e.frozen().empty())
        std::cout << " frozen" << e.frozen().to_string();
      std::cout << "\n";
    }
  }

  Bus bus;
  std::vector<NodeId> ids;
  std::map<NodeId, char> labels;
  /// Per-node engine contexts; declared before the engines they outlive.
  std::deque<core::EngineContext> contexts;
  std::map<NodeId, std::unique_ptr<HlsEngine>> engines;
};

void example_figure2() {
  std::cout << "=== Figure 2: grant, release, queue ===\n";
  // Figure 2(a) topology: A is root holding R; B holds IR as A's child;
  // C holds IR as B's child (B granted it — Rule 3.1); D hangs off B.
  Cluster c({'A', 'B', 'C', 'D'}, 'A', {{'C', 'B'}, {'D', 'B'}});
  const RequestId ra = c.at('A').request_lock(Mode::kR);
  (void)ra;
  const RequestId rb = c.at('B').request_lock(Mode::kIR);
  c.bus.pump();
  // C's request routes through its parent B, which grants it itself.
  const RequestId rc = c.at('C').request_lock(Mode::kIR);
  c.bus.pump();
  (void)rc;
  c.show("initial state (Fig. 2a): A holds R, B holds IR, C holds IR via B");

  std::cout << "  B releases IR -- NO release message (Rule 5.2): B still "
               "owns IR through child C\n";
  c.at('B').unlock(rb);
  c.bus.pump();
  c.show("after B releases IR (Fig. 2b)");

  std::cout << "  B requests R; D requests R while {B,R} is in transit\n";
  (void)c.at('B').request_lock(Mode::kR);
  (void)c.at('D').request_lock(Mode::kR);
  c.bus.pump();
  c.show("after both R requests served (Fig. 2d)");
}

void example_figure3() {
  std::cout << "\n=== Figure 3: frozen modes ===\n";
  // A is root holding IW; B, C hold IW copies... IW is incompatible with
  // IW? No: IW is compatible with IW — A, B, C all hold IW concurrently.
  Cluster c({'A', 'B', 'C', 'D'}, 'A');
  const RequestId ra = c.at('A').request_lock(Mode::kIW);
  const RequestId rb = c.at('B').request_lock(Mode::kIW);
  c.bus.pump();
  const RequestId rc = c.at('C').request_lock(Mode::kIW);
  c.bus.pump();
  (void)rb;
  c.show("initial state (Fig. 3a): A,B,C hold IW");

  std::cout << "  D requests R -> incompatible with IW, queued at token "
               "node A; A freezes IW and notifies potential granters\n";
  (void)c.at('D').request_lock(Mode::kR);
  c.bus.pump();
  c.show("frozen state (Fig. 3b)");

  std::cout << "  C and A release IW; B still holds -> D still waits\n";
  c.at('C').unlock(rc);
  c.at('A').unlock(ra);
  c.bus.pump();
  c.show("after C and A released");

  std::cout << "  B releases IW -> owned modes drain, token forwarded to D\n";
  c.at('B').unlock(c.at('B').holds().begin()->first);
  c.bus.pump();
  c.show("final state (Fig. 3c): D holds R and the token");
}

}  // namespace

int main() {
  example_figure2();
  example_figure3();
  return 0;
}
