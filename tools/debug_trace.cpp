#include <iostream>
#include "common/parse.hpp"
#include "harness/cluster.hpp"
#include "harness/invariants.hpp"
using namespace hlock;
using namespace hlock::harness;

namespace {
// Positional args parsed strictly — std::stoul would terminate with an
// uncaught std::invalid_argument on garbage; exit 2 with usage instead.
template <typename T>
T arg_or(int argc, char** argv, int index, T fallback,
         std::optional<T> (*parse)(const std::string&)) {
  if (argc <= index) return fallback;
  const auto v = parse(argv[index]);
  if (!v) {
    std::cerr << "error: argument " << index << " ('" << argv[index]
              << "') must be an unsigned integer\n"
              << "usage: debug_trace [nodes] [seed] [ops]\n";
    std::exit(2);
  }
  return *v;
}
std::optional<std::uint64_t> parse_seed(const std::string& s) {
  return try_parse_u64(s, 0);
}
}  // namespace

int main(int argc, char** argv) {
  ClusterConfig c;
  c.nodes = arg_or<std::size_t>(argc, argv, 1, 2, &try_parse_size);
  c.spec.seed = arg_or<std::uint64_t>(argc, argv, 2, 2, &parse_seed);
  c.spec.ops_per_node = arg_or<std::uint32_t>(
      argc, argv, 3, 15, [](const std::string& s) { return try_parse_u32(s, 10); });
  HlsCluster cluster(c);
  cluster.network().on_deliver = [&](NodeId f, NodeId t, const Message& m) {
    std::cout << cluster.simulator().now() << " lock" << m.lock.value
              << " " << f << "->" << t << " " << to_string(m.kind)
              << " req{" << m.req.requester << "," << to_string(m.req.mode)
              << (m.req.upgrade ? ",upg" : "") << "}"
              << " mode=" << to_string(m.mode)
              << " frozen=" << m.frozen.to_string()
              << " sender_owned=" << to_string(m.sender_owned)
              << " q=" << m.queue.size() << "\n";
  };
  // Reads through find(): dumping must not materialize engines, which
  // would change the run it inspects. An absent engine is pristine.
  auto dump = [&](LockId lk) {
    for (size_t i = 0; i < cluster.node_count(); ++i) {
      const core::HlsEngine* e = cluster.node(i).find(lk);
      std::cout << "  lock" << lk.value << " node" << i;
      if (e == nullptr) {
        std::cout << " pristine token="
                  << (cluster.home_of(lk).value == i) << "\n";
        continue;
      }
      std::cout << " token=" << e->is_token_node()
                << " parent=" << e->parent() << " owned=" << to_string(e->owned_mode())
                << " held=" << to_string(e->held_mode())
                << " pending=" << e->has_pending() << " backlog=" << e->backlog_size()
                << " frozen=" << e->frozen().to_string() << " children={";
      e->for_each_child([](NodeId ch, Mode m2) { std::cout << ch << ":" << to_string(m2) << " "; });
      std::cout << "} queue=[";
      for (auto& q : e->queue()) std::cout << q.requester << ":" << to_string(q.mode) << (q.upgrade?"^":"") << " ";
      std::cout << "]\n";
    }
  };
  cluster.simulator().post_event_hook = [&] {
    const std::string err = check_safety(cluster);
    if (!err.empty()) {
      std::cout << "VIOLATION @" << cluster.simulator().now() << ": " << err << "\n";
      dump(LockId{0});
      std::exit(1);
    }
  };
  try { cluster.run(); } catch (const std::exception& e) {
    std::cout << "EXCEPTION: " << e.what() << "\n";
    for (uint32_t l = 0; l < cluster.layout().lock_count(); ++l) dump(LockId{l});
    return 2;
  }
  std::cout << "OK msgs=" << cluster.result().messages << "\n";
  return 0;
}
