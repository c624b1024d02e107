// NaimiNode — per-participant multiplexer over one NaimiEngine per lock,
// mirroring core::HlsNode for the baseline protocol.
#pragma once

#include <functional>

#include "common/engine_table.hpp"
#include "common/types.hpp"
#include "msg/message.hpp"
#include "naimi/naimi_engine.hpp"

namespace hlock::naimi {

class NaimiNode {
 public:
  using AcquiredFn = std::function<void(LockId, RequestId)>;

  NaimiNode(NodeId self, Transport& transport);
  // Engine callbacks capture `this`, so the node stays where it was built.
  NaimiNode(const NaimiNode&) = delete;
  NaimiNode& operator=(const NaimiNode&) = delete;

  NaimiEngine& add_lock(LockId lock, NodeId initial_holder);
  /// Engine for a lock added earlier; throws if unknown, unless a lazy
  /// holder is installed (then the engine materializes on first touch).
  [[nodiscard]] NaimiEngine& engine(LockId lock);
  [[nodiscard]] const NaimiEngine* find(LockId lock) const {
    return engines_.find(lock);
  }
  void handle(const Message& m);

  /// Many-lock mode (mirrors HlsNode): materialize engines on first touch
  /// from a deterministic lock -> initial-holder mapping. An untouched
  /// lock costs nothing.
  void set_lazy_holder(std::function<NodeId(LockId)> holder_of) {
    lazy_holder_ = std::move(holder_of);
  }

  void set_on_acquired(AcquiredFn fn) { on_acquired_ = std::move(fn); }
  [[nodiscard]] NodeId self() const { return self_; }
  /// Materialized engines.
  [[nodiscard]] std::size_t lock_count() const { return engines_.size(); }
  /// Visit every materialized engine in lock-id order.
  template <typename Fn>
  void for_each_engine(Fn&& fn) const {
    engines_.for_each(
        [&fn](LockId lock, const NaimiEngine& engine) { fn(lock, engine); });
  }

 private:
  NodeId self_;
  Transport& transport_;
  AcquiredFn on_acquired_;
  std::function<NodeId(LockId)> lazy_holder_;
  EngineTable<NaimiEngine> engines_;
};

}  // namespace hlock::naimi
