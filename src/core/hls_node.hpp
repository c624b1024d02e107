// HlsNode — one per participant: owns an HlsEngine per lock object and
// demultiplexes incoming messages by lock id. The application sees a
// single pair of callbacks tagged with the lock. The node also owns the
// EngineContext its engines share (identity, transport, options,
// topology, callbacks), so an engine stores per-lock state only.
#pragma once

#include <functional>
#include <set>

#include "common/engine_table.hpp"
#include "common/types.hpp"
#include "core/hls_engine.hpp"
#include "msg/message.hpp"

namespace hlock::core {

class HlsNode {
 public:
  using AcquiredFn = std::function<void(LockId, RequestId, Mode)>;
  using UpgradedFn = std::function<void(LockId, RequestId)>;

  HlsNode(NodeId self, Transport& transport, EngineOptions opts = {});
  // Engines point at ctx_, so the node stays where it was built.
  HlsNode(const HlsNode&) = delete;
  HlsNode& operator=(const HlsNode&) = delete;

  /// Instantiate the engine for `lock`; `initial_holder` seeds the token
  /// tree and must be identical on every node. `initial_parent` optionally
  /// places this node in a non-star initial topology.
  HlsEngine& add_lock(LockId lock, NodeId initial_holder,
                      NodeId initial_parent = NodeId::invalid());

  /// Engine for a lock added earlier; throws if unknown — unless a lazy
  /// holder is installed, in which case the engine materializes on first
  /// touch (see set_lazy_holder).
  [[nodiscard]] HlsEngine& engine(LockId lock);
  [[nodiscard]] const HlsEngine* find(LockId lock) const;

  /// Many-lock mode: instead of add_lock()-ing every id up front (which
  /// costs a full engine per idle lock), install a function mapping a lock
  /// id to its initial token holder. engine() then materializes unknown
  /// locks on demand: an untouched lock costs nothing, and materializing
  /// one costs one allocation (the engine) plus, now and then, a doubling
  /// of the engine index (see EngineTable). The mapping must be identical
  /// on every node of the cluster.
  void set_lazy_holder(std::function<NodeId(LockId)> holder_of) {
    lazy_holder_ = std::move(holder_of);
  }

  /// Install the cluster topology for locality-biased token service
  /// (borrowed; must outlive the node). It lives in the context every
  /// engine of this node reads, so it applies at once to existing engines
  /// and to engines added or lazily materialized later; install it before
  /// any traffic flows. Without a map the locality_bias option is inert.
  void set_cluster_map(const ClusterMap* map) { ctx_.clusters = map; }

  /// Crash recovery: apply the membership service's decision to every
  /// materialized engine (departed tombstones are skipped — they have no
  /// state to rebuild). The view is remembered, so an engine materialized
  /// lazily afterwards adopts it instead of starting at view 0 and
  /// fencing off all live traffic. A late-materialized engine joins with
  /// an empty attach barrier — sound for locks untouched before the
  /// crash (the lazy case's workload); locks with pre-crash remote state
  /// must be registered eagerly on every node.
  void begin_recovery(std::uint32_t view, NodeId new_root,
                      const std::set<NodeId>& survivors);

  /// Route one incoming message to its lock's engine.
  void handle(const Message& m);

  void set_on_acquired(AcquiredFn fn) { ctx_.on_acquired = std::move(fn); }
  void set_on_upgraded(UpgradedFn fn) { ctx_.on_upgraded = std::move(fn); }

  [[nodiscard]] NodeId self() const { return ctx_.self; }
  /// Materialized engines.
  [[nodiscard]] std::size_t lock_count() const { return engines_.size(); }
  /// Heap bytes of the engine index, engines excluded.
  [[nodiscard]] std::size_t index_bytes() const {
    return engines_.index_bytes();
  }

  /// Visit every *materialized* engine in lock-id order (lazily-managed
  /// forests never instantiate the full id space, so observers — the
  /// deadlock monitor — must walk what exists rather than enumerate the
  /// universe).
  template <typename Fn>
  void for_each_engine(Fn&& fn) const {
    engines_.for_each(
        [&fn](LockId lock, const HlsEngine& engine) { fn(lock, engine); });
  }

 private:
  EngineContext ctx_;
  std::function<NodeId(LockId)> lazy_holder_;
  /// Last committed recovery view (0 = none); adopted by engines that
  /// materialize after the recovery ran.
  std::uint32_t recovery_view_{0};
  NodeId recovery_root_{NodeId::invalid()};
  std::set<NodeId> recovery_survivors_;
  /// The materialized engines. engine() looks up here for every message.
  EngineTable<HlsEngine> engines_;
};

}  // namespace hlock::core
