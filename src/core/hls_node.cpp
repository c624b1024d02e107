#include "core/hls_node.hpp"

#include <stdexcept>

namespace hlock::core {

HlsNode::HlsNode(NodeId self, Transport& transport, EngineOptions opts)
    : ctx_{self, transport, opts} {}

HlsEngine& HlsNode::add_lock(LockId lock, NodeId initial_holder,
                             NodeId initial_parent) {
  auto engine =
      std::make_unique<HlsEngine>(ctx_, lock, initial_holder, initial_parent);
  if (recovery_view_ != 0) {
    // Materialized after a recovery: adopt the committed view or every
    // live message (stamped with it) would be fenced off. The root joins
    // with an empty barrier — survivors with pre-crash state for this
    // lock would have materialized it already (see begin_recovery).
    const std::set<NodeId> scope = ctx_.self == recovery_root_
                                       ? std::set<NodeId>{ctx_.self}
                                       : recovery_survivors_;
    engine->begin_recovery(recovery_view_, recovery_root_, scope);
  }
  std::unique_ptr<HlsEngine>* slot;
  if (lock.value < kDenseLockLimit) {
    if (lock.value >= dense_.size()) dense_.resize(lock.value + 1);
    slot = &dense_[lock.value];
    if (*slot) throw std::logic_error("lock added twice");
  } else {
    auto [it, inserted] = sparse_.try_emplace(lock);
    if (!inserted) throw std::logic_error("lock added twice");
    slot = &it->second;
  }
  *slot = std::move(engine);
  ++lock_count_;
  return **slot;
}

HlsEngine& HlsNode::engine(LockId lock) {
  if (lock.value < dense_.size() && dense_[lock.value])
    return *dense_[lock.value];
  if (lock.value >= kDenseLockLimit) {
    const auto it = sparse_.find(lock);
    if (it != sparse_.end()) return *it->second;
  }
  if (lazy_holder_) return add_lock(lock, lazy_holder_(lock));
  throw std::logic_error("unknown lock");
}

const HlsEngine* HlsNode::find(LockId lock) const {
  if (lock.value < kDenseLockLimit)
    return lock.value < dense_.size() ? dense_[lock.value].get() : nullptr;
  const auto it = sparse_.find(lock);
  return it == sparse_.end() ? nullptr : it->second.get();
}

void HlsNode::begin_recovery(std::uint32_t view, NodeId new_root,
                             const std::set<NodeId>& survivors) {
  recovery_view_ = view;
  recovery_root_ = new_root;
  recovery_survivors_ = survivors;
  const auto recover = [&](HlsEngine& eng) {
    if (!eng.departed()) eng.begin_recovery(view, new_root, survivors);
  };
  for (auto& eng : dense_)
    if (eng) recover(*eng);
  for (auto& [lock, eng] : sparse_) recover(*eng);
}

void HlsNode::handle(const Message& m) { engine(m.lock).handle(m); }

}  // namespace hlock::core
