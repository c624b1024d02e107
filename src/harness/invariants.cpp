#include "harness/invariants.hpp"

#include <sstream>
#include <stdexcept>
#include <vector>

namespace hlock::harness {

namespace {

std::string check_lock(HlsCluster& cluster, LockId lock) {
  const std::size_t n = cluster.node_count();

  // I1: token uniqueness (0 allowed transiently: token in flight).
  std::size_t token_nodes = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (cluster.node(i).engine(lock).is_token_node()) ++token_nodes;
  }
  if (token_nodes > 1) {
    std::ostringstream os;
    os << "lock " << lock << ": " << token_nodes << " token nodes";
    return os.str();
  }

  // I2: pairwise compatibility of all holds.
  std::vector<std::pair<NodeId, Mode>> held;
  for (std::size_t i = 0; i < n; ++i) {
    const auto& engine = cluster.node(i).engine(lock);
    for (const auto& [id, mode] : engine.holds()) {
      held.emplace_back(engine.self(), mode);
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
    const auto& engine = cluster.node(i).engine(lock);
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
    const auto& pengine = cluster.node(parent.value).engine(lock);
    if (pengine.has_pending()) continue;
    const Mode recorded = pengine.child_mode(engine.self());
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

std::string check_safety(HlsCluster& cluster) {
  const std::uint32_t locks = cluster.layout().lock_count();
  for (std::uint32_t l = 0; l < locks; ++l) {
    std::string err = check_lock(cluster, LockId{l});
    if (!err.empty()) return err;
  }
  return {};
}

std::string check_quiescent(HlsCluster& cluster) {
  std::string err = check_safety(cluster);
  if (!err.empty()) return err;

  const std::size_t n = cluster.node_count();
  const std::uint32_t locks = cluster.layout().lock_count();
  for (std::uint32_t l = 0; l < locks; ++l) {
    const LockId lock{l};
    std::size_t token_nodes = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const auto& engine = cluster.node(i).engine(lock);
      if (engine.is_token_node()) ++token_nodes;
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
