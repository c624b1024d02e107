#include "harness/many_locks_cluster.hpp"

#include <deque>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/cluster_map.hpp"
#include "common/rng.hpp"
#include "harness/deadlock.hpp"
#include "sim/latency.hpp"

namespace hlock::harness {

namespace {

/// SplitMix64-style stream derivation: deterministic, shard-invariant
/// per-(tree) and per-(tree, node) seeds. Rng::split() would serialize
/// the derivation order, which must not depend on construction order.
std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = a + 0x9e3779b97f4a7c15ULL * (b + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// A coupled forest puts every tree on one simulator, so its cross-tree
/// events need no channel between shards.
std::size_t shard_count(const ManyLocksConfig& c) {
  if (c.shards == 0) throw std::invalid_argument("need >= 1 shard");
  return c.cross_tree_pct > 0.0 ? 1 : c.shards;
}

workload::ForestLayout make_layout(const ManyLocksConfig& c) {
  if (c.trees == 0) throw std::invalid_argument("need >= 1 tree");
  if (c.spec.lock_count / c.trees < 8)
    throw std::invalid_argument("need >= 8 locks per tree (lock_count)");
  return workload::ForestLayout(c.spec.lock_count / c.trees, c.levels);
}

}  // namespace

struct ManyLocksCluster::TreeState {
  TreeState(sim::Simulator& simulator, std::uint32_t tree_index)
      : index(tree_index), sim(&simulator), exec(simulator) {}

  std::uint32_t index;
  sim::Simulator* sim;
  std::size_t shard{0};
  std::unique_ptr<ClusterMap> cmap;  ///< clustered topology, if any
  std::unique_ptr<sim::SimNetwork> net;
  SimExecutor exec;
  std::vector<std::unique_ptr<sim::SimTransport>> transports;
  std::vector<std::unique_ptr<core::HlsNode>> nodes;
  /// One single-session mux per node.
  std::vector<std::unique_ptr<lockmgr::SessionMux>> sessions;
  std::vector<workload::ForestOpGen> gens;
  std::vector<std::uint32_t> remaining;

  // --- multi-tree transaction state (built only when coupling is on) ---
  /// The remote transaction's leg whose locks the gateway session holds.
  struct HeldLeg {
    std::uint64_t leg_id{0};
    std::uint32_t req_tree{0};
    std::size_t req_node{0};
  };
  /// Stream for cross-tree hop latencies and order keys; distinct from
  /// the net/gen streams so uncoupled runs stay byte-identical.
  Rng cross_rng{0};
  std::uint64_t cross_seq{0};
  std::uint64_t cross_completed{0};
  std::unique_ptr<sim::SimTransport> gw_transport;
  std::unique_ptr<core::HlsNode> gw_node;
  std::unique_ptr<lockmgr::SessionMux> gw_session;
  std::deque<std::shared_ptr<CrossFlight>> gw_queue;
  std::optional<HeldLeg> gw_held;
  /// Per local node: partner tree index while a gateway leg of ours is
  /// outstanding (posted but not yet replied), else -1. Feeds the
  /// cross-tree wait edges.
  std::vector<std::int64_t> waiting_gateway;

  // Per-tree metrics, merged in tree-index order by result().
  std::uint64_t completed{0};
  std::uint64_t lock_requests{0};
  Summary latency;
  TimePoint last_done{0};
};

/// One in-flight multi-tree transaction. Phases alternate between the
/// home tree and the partner tree, handed off through keyed events on
/// the forest's one simulator.
struct ManyLocksCluster::CrossFlight {
  TreeState* home{nullptr};
  std::size_t node{0};
  TreeState* remote{nullptr};
  std::vector<lockmgr::PlanStep> home_plan;
  std::vector<lockmgr::PlanStep> remote_plan;
  bool home_first{true};
  Duration cs{0};
  TimePoint started{0};
  Duration acquire_span{0};
  std::uint32_t lock_requests{0};
  std::uint64_t leg_id{0};
};

ManyLocksCluster::ManyLocksCluster(const ManyLocksConfig& config)
    : config_(config),
      layout_(make_layout(config)),
      zipf_(layout_.pages(), config.spec.zipf_theta),
      sharded_(shard_count(config)) {
  if (config.nodes == 0) throw std::invalid_argument("need >= 1 node");
  if (config.cross_tree_pct < 0.0 || config.cross_tree_pct > 100.0)
    throw std::invalid_argument("cross_tree_pct must be in [0, 100]");
  if (config.cross_tree_pct > 0.0 && config.trees < 2)
    throw std::invalid_argument("cross-tree ops need >= 2 trees");
  config.spec.validate();
  coupling_ = config.cross_tree_pct > 0.0;
  const bool clustered = config.clusters > 1 && config.intra_latency_mean > 0;

  const std::uint64_t seed = config.spec.seed;
  const auto nodes = static_cast<std::uint32_t>(config.nodes);
  trees_.reserve(config.trees);
  for (std::uint32_t t = 0; t < config.trees; ++t) {
    const std::size_t shard =
        workload::ForestLayout::shard_of(t, sharded_.shard_count());
    auto tree = std::make_unique<TreeState>(sharded_.shard(shard), t);
    tree->shard = shard;
    std::unique_ptr<sim::LatencyModel> lat;
    if (clustered) {
      tree->cmap = std::make_unique<ClusterMap>(ClusterMap::make(
          config.nodes, config.clusters, ClusterPlacement::kBlock));
      lat = std::make_unique<sim::ClusteredLatency>(
          tree->cmap.get(),
          std::make_unique<sim::UniformLatency>(config.intra_latency_mean),
          std::make_unique<sim::UniformLatency>(config.spec.net_latency_mean));
    } else {
      lat = std::make_unique<sim::UniformLatency>(config.spec.net_latency_mean);
    }
    tree->net = std::make_unique<sim::SimNetwork>(
        *tree->sim, std::move(lat), Rng(mix(seed ^ 0x6e65745f726e67ULL, t)));
    tree->transports.reserve(config.nodes);
    tree->nodes.reserve(config.nodes);
    tree->gens.reserve(config.nodes);
    for (std::uint32_t i = 0; i < nodes; ++i) {
      const NodeId id{i};
      tree->transports.push_back(
          std::make_unique<sim::SimTransport>(*tree->net, id));
      auto node = std::make_unique<core::HlsNode>(
          id, *tree->transports.back(), config.engine_opts);
      // Engines materialize on first touch; an idle lock costs nothing.
      // The holder mapping is pure id arithmetic, identical on every node
      // of the tree.
      node->set_lazy_holder(
          [nodes](LockId l) { return workload::ForestLayout::home_of(l, nodes); });
      tree->net->register_node(
          id, [n = node.get()](const Message& m) { n->handle(m); });
      tree->nodes.push_back(std::move(node));
      tree->gens.emplace_back(config.spec, zipf_, Rng(mix(mix(seed, t), i)));
    }
    for (std::uint32_t i = 0; i < nodes; ++i) {
      tree->sessions.push_back(std::make_unique<lockmgr::SessionMux>(
          *tree->nodes[i], tree->exec, 1));
    }
    if (coupling_) {
      // The gateway is an extra protocol participant with local id
      // `nodes`: it executes remote transactions' legs on this tree so a
      // cross-tree op needs no second session on any real node. It never
      // owns tokens initially (home_of maps onto 0..nodes-1) and, under a
      // clustered map, sits past the table — i.e. in cluster 0's rack.
      tree->cross_rng = Rng(mix(seed ^ 0x63726f73735f726eULL, t));
      tree->waiting_gateway.assign(config.nodes, -1);
      const NodeId gw_id{nodes};
      tree->gw_transport =
          std::make_unique<sim::SimTransport>(*tree->net, gw_id);
      auto gw = std::make_unique<core::HlsNode>(gw_id, *tree->gw_transport,
                                                config.engine_opts);
      gw->set_lazy_holder(
          [nodes](LockId l) { return workload::ForestLayout::home_of(l, nodes); });
      tree->net->register_node(
          gw_id, [n = gw.get()](const Message& m) { n->handle(m); });
      tree->gw_node = std::move(gw);
      tree->gw_session =
          std::make_unique<lockmgr::SessionMux>(*tree->gw_node, tree->exec, 1);
    }
    tree->remaining.assign(config.nodes, config.spec.ops_per_node);
    trees_.push_back(std::move(tree));
  }
}

ManyLocksCluster::~ManyLocksCluster() = default;

void ManyLocksCluster::kick(TreeState& tree, std::size_t node) {
  if (tree.remaining[node] == 0) return;
  tree.sim->schedule_after(tree.gens[node].next_idle(),
                           [this, &tree, node] { run_one_op(tree, node); });
}

void ManyLocksCluster::run_one_op(TreeState& tree, std::size_t node) {
  const workload::ForestOp op = tree.gens[node].next();
  // The cross-tree coin is drawn only when the feature is on, so pct == 0
  // consumes the exact legacy RNG stream (byte-identical runs).
  if (coupling_ && tree.gens[node].draw_cross(config_.cross_tree_pct)) {
    start_cross_op(tree, node, op);
    return;
  }
  lockmgr::Plan plan;
  workload::ForestOpGen::plan_for(layout_, op, plan.steps);
  tree.sessions[node]->run(
      0, std::move(plan), lockmgr::Op{.cs = op.cs},
      [this, &tree, node](const lockmgr::OpStats& r) {
        ++tree.completed;
        --tree.remaining[node];
        tree.lock_requests += r.lock_requests;
        tree.latency.add(
            static_cast<double>(r.acquire_latency) /
            static_cast<double>(config_.spec.net_latency_mean));
        if (tree.sim->now() > tree.last_done) tree.last_done = tree.sim->now();
        kick(tree, node);
      });
}

// --- multi-tree transactions -----------------------------------------
//
// Flow (each arrow is a keyed cross-tree event or a session callback):
//
//   home node: acquire first tree's plan
//     -> post leg to partner gateway (hop latency, keyed)
//     -> gateway serializes: acquires the leg's plan on the partner tree
//     -> post reply to home (hop latency, keyed)
//     -> home acquires the second plan if the leg went first
//     -> dwell cs on the home simulator
//     -> release: home session synchronously, gateway via a keyed event
//     -> op complete; kick the node's next op
//
// Ordered mode acquires the lower tree id first (total order -> no
// cross-tree cycles; within a tree, plan lock ids ascend level-order).
// Unordered mode always acquires the home tree first: two transactions
// in opposite directions then hold-and-wait across trees and deadlock.

void ManyLocksCluster::start_cross_op(TreeState& tree, std::size_t node,
                                      const workload::ForestOp& op) {
  const std::uint32_t partner =
      tree.gens[node].pick_partner(tree.index, config_.trees);
  const workload::ForestOp partner_op = tree.gens[node].next_partner(op);

  auto fl = std::make_shared<CrossFlight>();
  fl->home = &tree;
  fl->node = node;
  fl->remote = trees_[partner].get();
  workload::ForestOpGen::plan_for(layout_, op, fl->home_plan);
  workload::ForestOpGen::plan_for(layout_, partner_op, fl->remote_plan);
  fl->home_first = config_.cross_tree_unordered || tree.index < partner;
  fl->cs = op.cs;
  fl->started = tree.sim->now();

  if (fl->home_first) acquire_home(fl);
  else post_leg(fl);
}

// The flight's next step after each phase follows from home_first alone,
// so no continuation is stored on the flight: a flight stuck in a
// deadlocked run is owned only by the cluster's queues and sessions and
// is freed with them.
void ManyLocksCluster::acquire_home(const std::shared_ptr<CrossFlight>& fl) {
  fl->home->sessions[fl->node]->acquire(
      0, fl->home_plan, [this, fl](const lockmgr::OpStats& r) {
        fl->lock_requests += r.lock_requests;
        if (fl->home_first) post_leg(fl);
        else begin_dwell(fl);
      });
}

void ManyLocksCluster::post_leg(const std::shared_ptr<CrossFlight>& fl) {
  TreeState& home = *fl->home;
  TreeState& remote = *fl->remote;
  fl->leg_id = make_key(home);
  home.waiting_gateway[fl->node] = remote.index;
  remote.sim->schedule_cross_at(home.sim->now() + sample_hop(home),
                                fl->leg_id, [this, fl] {
                                  fl->remote->gw_queue.push_back(fl);
                                  gateway_pump(*fl->remote);
                                });
}

void ManyLocksCluster::gateway_pump(TreeState& tree) {
  // One leg at a time, FIFO — the gateway session stays busy from a leg's
  // acquisition until its release: concurrent legs always share at least
  // the top lock, and an engine cannot hold a lock twice. The gateway
  // "waiting" for a dwelling transaction is finite by itself; the genuine
  // deadlock risk (hold-and-wait ACROSS trees) lives in the requesters and
  // is what the wait-for graph tracks.
  if (tree.gw_session->busy(0) || tree.gw_queue.empty()) return;
  std::shared_ptr<CrossFlight> fl = std::move(tree.gw_queue.front());
  tree.gw_queue.pop_front();
  tree.gw_session->acquire(
      0, fl->remote_plan, [this, fl](const lockmgr::OpStats& r) {
        TreeState& remote = *fl->remote;
        remote.gw_held = TreeState::HeldLeg{fl->leg_id, fl->home->index,
                                            fl->node};
        fl->lock_requests += r.lock_requests;
        // Reply: the requester resumes on its own tree, one hop later.
        fl->home->sim->schedule_cross_at(
            remote.sim->now() + sample_hop(remote), make_key(remote),
            [this, fl] {
              fl->home->waiting_gateway[fl->node] = -1;
              if (fl->home_first) begin_dwell(fl);
              else acquire_home(fl);
            });
      });
}

void ManyLocksCluster::gateway_release(TreeState& tree, std::uint64_t leg_id) {
  if (!tree.gw_held || tree.gw_held->leg_id != leg_id)
    throw std::logic_error("release for an unknown cross-tree leg");
  tree.gw_session->release(0);
  tree.gw_held.reset();
  gateway_pump(tree);
}

void ManyLocksCluster::begin_dwell(const std::shared_ptr<CrossFlight>& fl) {
  TreeState& home = *fl->home;
  fl->acquire_span = home.sim->now() - fl->started;
  home.sim->schedule_after(fl->cs, [this, fl] { finish_cross_op(fl); });
}

void ManyLocksCluster::finish_cross_op(const std::shared_ptr<CrossFlight>& fl) {
  TreeState& home = *fl->home;
  TreeState& remote = *fl->remote;
  // Release both legs. The gateway's unlock is a keyed event (it lands
  // one hop later in virtual time, like a real release message would);
  // the home session unlocks synchronously.
  remote.sim->schedule_cross_at(
      home.sim->now() + sample_hop(home), make_key(home),
      [this, fl] { gateway_release(*fl->remote, fl->leg_id); });
  home.sessions[fl->node]->release(0);

  ++home.completed;
  ++home.cross_completed;
  --home.remaining[fl->node];
  home.lock_requests += fl->lock_requests;
  home.latency.add(static_cast<double>(fl->acquire_span) /
                   static_cast<double>(config_.spec.net_latency_mean));
  if (home.sim->now() > home.last_done) home.last_done = home.sim->now();
  kick(home, fl->node);
}

Duration ManyLocksCluster::sample_hop(TreeState& src) {
  // Cross-tree hops mirror the flat network's uniform distribution.
  const Duration mean = config_.spec.net_latency_mean;
  return src.cross_rng.uniform(mean / 2, mean + mean / 2);
}

std::uint64_t ManyLocksCluster::make_key(TreeState& src) {
  // Deterministic cross-event order key: (source tree, per-tree counter)
  // — unique, so the simulator's (t, key) order never depends on when
  // the event was scheduled.
  return (static_cast<std::uint64_t>(src.index) << 32) | ++src.cross_seq;
}

void ManyLocksCluster::run() {
  if (coupling_) {
    // Every tree shares the one simulator (see shard_count).
    for (auto& tree : trees_) {
      for (std::size_t i = 0; i < config_.nodes; ++i) kick(*tree, i);
    }
    sharded_.shard(0).run_all();
  } else {
    const std::size_t threads =
        config_.run_threads == 0 ? config_.shards : config_.run_threads;
    // No event crosses a tree, so each shard drains its trees one at a
    // time from t = 0: only one tree's engines, index and network are hot
    // at once, and the output is the interleaved run's (see sharded.hpp).
    sharded_.drain_each(threads, [this](std::size_t shard) {
      for (auto& tree : trees_) {
        if (tree->shard != shard) continue;
        for (std::size_t i = 0; i < config_.nodes; ++i) kick(*tree, i);
        tree->sim->run_all();
        tree->sim->rewind();
      }
    });
  }

  std::uint64_t completed = 0;
  for (const auto& tree : trees_) completed += tree->completed;
  const std::uint64_t expected = static_cast<std::uint64_t>(config_.trees) *
                                 config_.nodes * config_.spec.ops_per_node;
  if (completed == expected) return;
  // The forest drained with ops outstanding. Unordered cross-tree mode
  // can genuinely deadlock; tell that apart from a lost request by
  // inspecting the wait-for graph.
  deadlock_cycles_ = wait_graph().count_cycles();
  if (deadlock_cycles_ == 0) {
    throw std::runtime_error(
        "forest drained with incomplete ops (lost request): " +
        std::to_string(completed) + "/" + std::to_string(expected));
  }
}

lockmgr::WaitForGraph ManyLocksCluster::wait_graph() const {
  lockmgr::WaitForGraph graph;
  const auto stride = static_cast<std::uint32_t>(config_.nodes) + 1;
  for (const auto& tree : trees_) {
    std::vector<const core::HlsNode*> nodes;
    nodes.reserve(tree->nodes.size() + 1);
    for (const auto& n : tree->nodes) nodes.push_back(n.get());
    if (tree->gw_node) nodes.push_back(tree->gw_node.get());
    const std::uint32_t base = tree->index * stride;
    add_wait_edges(graph, nodes,
                   [base](NodeId n) { return NodeId{base + n.value}; });
  }
  if (!coupling_) return graph;
  // Harness-level cross-tree edges: a requester with an outstanding leg
  // waits for the partner tree's gateway (whether the leg is queued or
  // mid-acquisition); a gateway holding a leg's locks releases them only
  // when its requester finishes, so it waits for the requester.
  for (const auto& tree : trees_) {
    const std::uint32_t base = tree->index * stride;
    for (std::size_t n = 0; n < config_.nodes; ++n) {
      const std::int64_t partner = tree->waiting_gateway[n];
      if (partner < 0) continue;
      graph.add_edge(
          NodeId{base + static_cast<std::uint32_t>(n)},
          NodeId{static_cast<std::uint32_t>(partner) * stride +
                 static_cast<std::uint32_t>(config_.nodes)});
    }
    const NodeId gw{base + static_cast<std::uint32_t>(config_.nodes)};
    if (const auto& leg = tree->gw_held) {
      graph.add_edge(gw, NodeId{leg->req_tree * stride +
                                static_cast<std::uint32_t>(leg->req_node)});
    }
  }
  return graph;
}

ManyLocksResult ManyLocksCluster::result() const {
  ManyLocksResult r;
  r.locks_total =
      static_cast<std::uint64_t>(layout_.locks_per_tree()) * config_.trees;
  // Merge strictly in tree-index order: Summary sums are floating-point
  // and order-dependent, and the tree partition (unlike the shard
  // partition) is invariant to --shards, so this order makes the merged
  // result bitwise-identical at any shard or thread count.
  for (const auto& tree : trees_) {
    r.ops += tree->completed;
    r.lock_requests += tree->lock_requests;
    r.messages += tree->net->messages_sent();
    r.wire_bytes += tree->net->bytes_sent();
    r.messages_by_kind.merge(tree->net->message_counts());
    for (const double v : tree->latency.samples()) r.latency_factor.add(v);
    for (const auto& node : tree->nodes)
      r.engines_materialized += node->lock_count();
    if (tree->gw_node) r.engines_materialized += tree->gw_node->lock_count();
    r.cross_tree_ops += tree->cross_completed;
    if (tree->last_done > r.virtual_end) r.virtual_end = tree->last_done;
  }
  r.events = sharded_.events_processed();
  r.deadlock_cycles = deadlock_cycles_;
  r.latency_factor.seal();
  return r;
}

}  // namespace hlock::harness
