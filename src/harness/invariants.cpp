#include "harness/invariants.hpp"

#include <sstream>
#include <stdexcept>
#include <vector>

namespace hlock::harness {

namespace {

// Engines are read through find(), so a check never materializes one. An
// absent engine is the pristine one: it has the token iff its node is the
// lock's initial holder, and no holds, requests, queue, children, frozen
// set or backlog.

bool has_token(const HlsCluster& cluster, std::size_t i, LockId lock) {
  const core::HlsEngine* engine = cluster.node(i).find(lock);
  return engine != nullptr ? engine->is_token_node()
                           : cluster.home_of(lock).value == i;
}

std::string check_lock(const HlsCluster& cluster, LockId lock) {
  const std::size_t n = cluster.node_count();

  // I1: token uniqueness (0 allowed transiently: token in flight).
  std::size_t token_nodes = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (has_token(cluster, i, lock)) ++token_nodes;
  }
  if (token_nodes > 1) {
    std::ostringstream os;
    os << "lock " << lock << ": " << token_nodes << " token nodes";
    return os.str();
  }

  // I2: pairwise compatibility of all holds.
  std::vector<std::pair<NodeId, Mode>> held;
  for (std::size_t i = 0; i < n; ++i) {
    const core::HlsEngine* engine = cluster.node(i).find(lock);
    if (engine == nullptr) continue;
    for (const auto& [id, mode] : engine->holds()) {
      held.emplace_back(engine->self(), mode);
    }
  }
  for (std::size_t a = 0; a < held.size(); ++a) {
    for (std::size_t b = a + 1; b < held.size(); ++b) {
      if (!compatible(held[a].second, held[b].second)) {
        std::ostringstream os;
        os << "lock " << lock << ": incompatible holds " << held[a].second
           << "@" << held[a].first << " and " << held[b].second << "@"
           << held[b].first;
        return os.str();
      }
    }
  }

  // I3: parents over-approximate their children's owned modes. Two
  // transients are exempt, both tied to a token transfer in flight:
  //  - the child has a pending request (the transfer to it already
  //    unregistered it from the old root's copyset), or
  //  - the parent has a pending request (it is the transfer target; the
  //    child is the old root whose registration travels in the token's
  //    sender_owned field).
  for (std::size_t i = 0; i < n; ++i) {
    const core::HlsEngine* found = cluster.node(i).find(lock);
    if (found == nullptr) continue;  // pristine: owns nothing or is root
    const core::HlsEngine& engine = *found;
    if (engine.is_token_node()) continue;
    if (engine.has_pending()) continue;
    const Mode owned = engine.owned_mode();
    if (owned == Mode::kNone) continue;
    const NodeId parent = engine.parent();
    if (!parent.valid()) {
      std::ostringstream os;
      os << "lock " << lock << ": owner " << engine.self()
         << " has no parent";
      return os.str();
    }
    const core::HlsEngine* pengine = cluster.node(parent.value).find(lock);
    if (pengine != nullptr && pengine->has_pending()) continue;
    const Mode recorded =
        pengine != nullptr ? pengine->child_mode(engine.self()) : Mode::kNone;
    if (recorded == Mode::kNone) {
      std::ostringstream os;
      os << "lock " << lock << ": owner " << engine.self() << " (owned "
         << owned << ") missing from parent " << parent << " copyset";
      return os.str();
    }
    if (strength(recorded) < strength(owned)) {
      std::ostringstream os;
      os << "lock " << lock << ": parent " << parent << " records child "
         << engine.self() << " as " << recorded
         << " weaker than actual owned " << owned;
      return os.str();
    }
  }
  return {};
}

}  // namespace

std::string check_safety(const HlsCluster& cluster) {
  const std::uint32_t locks = cluster.layout().lock_count();
  for (std::uint32_t l = 0; l < locks; ++l) {
    std::string err = check_lock(cluster, LockId{l});
    if (!err.empty()) return err;
  }
  return {};
}

std::string check_quiescent(const HlsCluster& cluster) {
  std::string err = check_safety(cluster);
  if (!err.empty()) return err;

  const std::size_t n = cluster.node_count();
  const std::uint32_t locks = cluster.layout().lock_count();
  for (std::uint32_t l = 0; l < locks; ++l) {
    const LockId lock{l};
    std::size_t token_nodes = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (has_token(cluster, i, lock)) ++token_nodes;
      const core::HlsEngine* found = cluster.node(i).find(lock);
      if (found == nullptr) continue;  // pristine: idle by definition
      const core::HlsEngine& engine = *found;
      std::ostringstream os;
      if (!engine.holds().empty()) {
        os << "lock " << lock << ": node " << i << " still holds";
      } else if (engine.has_pending()) {
        os << "lock " << lock << ": node " << i << " still pending";
      } else if (!engine.queue().empty()) {
        os << "lock " << lock << ": node " << i << " queue not empty";
      } else if (engine.copyset_size() != 0) {
        os << "lock " << lock << ": node " << i << " copyset not empty";
      } else if (!engine.frozen().empty()) {
        os << "lock " << lock << ": node " << i << " still frozen "
           << engine.frozen().to_string();
      } else if (engine.backlog_size() != 0) {
        os << "lock " << lock << ": node " << i << " backlog not empty";
      }
      const std::string s = os.str();
      if (!s.empty()) return s;
    }
    if (token_nodes != 1) {
      std::ostringstream os;
      os << "lock " << lock << ": " << token_nodes
         << " token nodes at quiescence";
      return os.str();
    }
  }
  return {};
}

void install_safety_probe(HlsCluster& cluster) {
  cluster.simulator().post_event_hook = [&cluster] {
    const std::string err = check_safety(cluster);
    if (!err.empty()) throw std::logic_error("invariant violated: " + err);
  };
}

}  // namespace hlock::harness
