// Many-lock forest harness: a forest of `trees` independent lock
// hierarchies (workload::ForestLayout), each with its own SimNetwork and
// HLS protocol nodes, distributed over a sim::ShardedSimulator.
//
// The tree is the unit of shard assignment (tree % shards). Per-tree
// behavior — and therefore every metric this harness reports — is
// invariant to the shard count AND the thread count: result() merges
// per-tree metrics in tree-index order, never per-shard. CI runs the same
// workload at --shards 1/2/8 and byte-compares the output; that only
// works because nothing shard-dependent (round counts, per-shard clocks)
// leaks into ManyLocksResult.
//
// Multi-tree transactions (cross_tree_pct > 0) couple the shards: an op
// acquires its plan in TWO hierarchies, the second through the partner
// tree's *gateway* node. Gateway legs and replies travel as keyed
// cross-shard events (ShardedSimulator::post), so the invariance above
// now rests on the simulator's deterministic (t, key) event order rather
// than on disjointness. Ordered mode acquires trees in tree-id order
// (a total order — deadlock-free by construction); the opt-in unordered
// mode always acquires the home tree first and can genuinely deadlock,
// which run() detects via the forest-wide wait-for graph instead of
// reporting a protocol failure.
//
// Memory: nodes install a lazy engine factory instead of add_lock()-ing
// the whole id space, so an idle lock costs nothing until first touch;
// each node's engine index grows with the engines it built.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/stats.hpp"
#include "common/types.hpp"
#include "core/hls_node.hpp"
#include "harness/metrics.hpp"
#include "harness/sim_executor.hpp"
#include "lockmgr/session_mux.hpp"
#include "lockmgr/waitgraph.hpp"
#include "sim/sharded.hpp"
#include "sim/simnet.hpp"
#include "workload/forest.hpp"
#include "workload/spec.hpp"
#include "workload/zipf.hpp"

namespace hlock::harness {

struct ManyLocksConfig {
  std::size_t nodes{4};      ///< protocol participants per tree
  std::uint32_t trees{16};   ///< independent hierarchies in the forest
  std::uint32_t levels{4};   ///< 3 = top/collection/page, 4 adds a db level
  std::size_t shards{1};     ///< event slabs; trees assigned tree % shards
  /// Worker threads for the sharded run; 0 = one per shard. <= 1 runs the
  /// serial oracle path.
  std::size_t run_threads{0};
  /// Percent of ops (0..100) that span two trees. 0 keeps the forest
  /// fully decoupled and byte-identical to pre-coupling builds.
  double cross_tree_pct{0.0};
  /// Acquire the home tree first regardless of tree order — provably
  /// deadlock-prone; exists to exercise cross-tree deadlock *detection*.
  bool cross_tree_unordered{false};
  /// Clustered per-tree topology: > 1 with intra_latency_mean > 0 wraps
  /// each tree's network in ClusteredLatency (block placement, intra
  /// uniform around intra_latency_mean, inter around net_latency_mean).
  /// The derived lookahead then shrinks to the intra floor — the bug the
  /// old hard-coded `net_latency_mean / 2` window got wrong.
  std::size_t clusters{0};
  Duration intra_latency_mean{0};
  /// spec.lock_count = total locks across the forest (split evenly per
  /// tree, remainder dropped); spec.zipf_theta = page-selection skew;
  /// spec.ops_per_node counts per (tree, node).
  workload::WorkloadSpec spec{};
  core::EngineOptions engine_opts{};
};

/// Shard-count- and thread-count-invariant run results (see file header).
struct ManyLocksResult {
  std::uint64_t ops{0};
  std::uint64_t lock_requests{0};
  std::uint64_t messages{0};
  std::uint64_t wire_bytes{0};
  std::uint64_t events{0};
  std::uint64_t locks_total{0};           ///< trees * locks_per_tree
  std::uint64_t engines_materialized{0};  ///< engines actually built
  std::uint64_t cross_tree_ops{0};        ///< ops that spanned two trees
  std::uint64_t deadlock_cycles{0};       ///< detected wait-for cycles
  CounterMap messages_by_kind;
  Summary latency_factor;  ///< acquire latency / mean net latency
  TimePoint virtual_end{0};  ///< max over trees of last op completion

  [[nodiscard]] double msgs_per_lock_request() const {
    return lock_requests == 0 ? 0.0
                              : static_cast<double>(messages) /
                                    static_cast<double>(lock_requests);
  }

  /// Exact equality down to Summary internals — the determinism tests
  /// compare whole results across shard/thread counts through this.
  bool operator==(const ManyLocksResult&) const = default;
};

class ManyLocksCluster {
 public:
  explicit ManyLocksCluster(const ManyLocksConfig& config);
  ~ManyLocksCluster();

  /// Drive every (tree, node) op stream to completion. If the forest
  /// drains with ops outstanding, the wait-for graph decides the verdict:
  /// cycles found -> genuine application deadlock, recorded in
  /// deadlock_cycles() and result(), and run() returns normally; no
  /// cycle -> lost request, a harness/protocol bug, and run() throws.
  void run();

  /// Conservative window derived from the *models*: min over every tree's
  /// network of min_latency(), min'd with the cross-tree hop floor when
  /// coupling is on, minus one (run_until is inclusive of its horizon, so
  /// the safe lookahead sits strictly below the minimum latency).
  [[nodiscard]] Duration lookahead() const;

  /// Instantaneous forest-wide wait-for graph: per-tree engine scans
  /// renamed into the global id space (tree * (nodes + 1) + local; the
  /// gateway is local id `nodes`), plus the harness's cross-tree edges —
  /// requester -> partner gateway while a leg is outstanding, and
  /// gateway -> requester for every leg whose locks it still holds.
  [[nodiscard]] lockmgr::WaitForGraph wait_graph() const;

  [[nodiscard]] std::uint64_t deadlock_cycles() const {
    return deadlock_cycles_;
  }

  [[nodiscard]] ManyLocksResult result() const;
  [[nodiscard]] const workload::ForestLayout& layout() const {
    return layout_;
  }
  [[nodiscard]] sim::ShardedSimulator& sharded() { return sharded_; }
  [[nodiscard]] const sim::ShardedSimulator& sharded() const {
    return sharded_;
  }
  [[nodiscard]] std::uint64_t rounds() const { return sharded_.rounds(); }

 private:
  struct TreeState;
  struct CrossFlight;

  void kick(TreeState& tree, std::size_t node);
  void run_one_op(TreeState& tree, std::size_t node);

  // Multi-tree transaction machinery (see .cpp flow comments).
  void start_cross_op(TreeState& tree, std::size_t node,
                      const workload::ForestOp& op);
  void acquire_home(const std::shared_ptr<CrossFlight>& fl);
  void post_leg(const std::shared_ptr<CrossFlight>& fl);
  void gateway_pump(TreeState& tree);
  void gateway_release(TreeState& tree, std::uint64_t leg_id);
  void begin_dwell(const std::shared_ptr<CrossFlight>& fl);
  void finish_cross_op(const std::shared_ptr<CrossFlight>& fl);
  [[nodiscard]] Duration sample_hop(TreeState& src);
  [[nodiscard]] std::uint64_t make_key(TreeState& src);

  ManyLocksConfig config_;
  workload::ForestLayout layout_;
  workload::ZipfTable zipf_;
  sim::ShardedSimulator sharded_;
  bool coupling_{false};
  std::uint64_t deadlock_cycles_{0};
  std::vector<std::unique_ptr<TreeState>> trees_;
};

}  // namespace hlock::harness
