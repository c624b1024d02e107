#include "naimi/naimi_node.hpp"

#include <memory>
#include <stdexcept>

namespace hlock::naimi {

NaimiNode::NaimiNode(NodeId self, Transport& transport)
    : self_(self), transport_(transport) {}

NaimiEngine& NaimiNode::add_lock(LockId lock, NodeId initial_holder) {
  NaimiCallbacks cbs;
  cbs.on_acquired = [this, lock](RequestId id) {
    if (on_acquired_) on_acquired_(lock, id);
  };
  return engines_.add(lock, std::make_unique<NaimiEngine>(
                                lock, self_, initial_holder, transport_,
                                std::move(cbs)));
}

NaimiEngine& NaimiNode::engine(LockId lock) {
  if (NaimiEngine* found = engines_.find(lock)) return *found;
  if (lazy_holder_) return add_lock(lock, lazy_holder_(lock));
  throw std::logic_error("unknown lock");
}

void NaimiNode::handle(const Message& m) { engine(m.lock).handle(m); }

}  // namespace hlock::naimi
