#include "core/hls_node.hpp"

#include <memory>
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
  return engines_.add(lock, std::move(engine));
}

HlsEngine& HlsNode::engine(LockId lock) {
  if (HlsEngine* found = engines_.find(lock)) return *found;
  if (lazy_holder_) return add_lock(lock, lazy_holder_(lock));
  throw std::logic_error("unknown lock");
}

const HlsEngine* HlsNode::find(LockId lock) const {
  return engines_.find(lock);
}

void HlsNode::begin_recovery(std::uint32_t view, NodeId new_root,
                             const std::set<NodeId>& survivors) {
  recovery_view_ = view;
  recovery_root_ = new_root;
  recovery_survivors_ = survivors;
  // Ascending lock id: the order the attaches go out in.
  engines_.for_each([&](LockId, HlsEngine& eng) {
    if (!eng.departed()) eng.begin_recovery(view, new_root, survivors);
  });
}

void HlsNode::handle(const Message& m) { engine(m.lock).handle(m); }

}  // namespace hlock::core
