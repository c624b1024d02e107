// Many-lock forest workload: a forest of independent lock hierarchies
// ("trees"), each a 3- or 4-level top/db/collection/page hierarchy in the
// style of production hierarchical lock managers (MongoDB's top/db/page
// levels; ROADMAP "many-lock sharded engine").
//
// Every tree is self-contained: its own lock-id space (dense, 0-based, so
// the low ids the workload touches most sit in adjacent slots of each
// node's engine index), its own protocol nodes and its own simulated
// network. Tree t runs on shard
// t % shards — the tree is the unit of shard assignment, which makes
// results invariant to the shard count: per-tree behavior never depends
// on which other trees share its simulator (disjoint event sets), and the
// harness merges per-tree metrics in tree-index order.
//
// Within a tree, local lock ids are laid out level-order:
//   0                              top
//   1 .. D                         dbs            (4-level trees only)
//   D+1 .. D+C                     collections
//   D+C+1 .. D+C+P                 pages
// An op targets a Zipf-sampled page (or its collection, for the scan-type
// ops) and acquires the standard multi-granularity plan: intents on every
// ancestor, the access mode on the target.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "core/mode.hpp"
#include "lockmgr/hierarchy.hpp"
#include "workload/spec.hpp"
#include "workload/zipf.hpp"

namespace hlock::workload {

/// Per-tree lock-id arithmetic. All trees of a forest share one layout
/// (lock_count / trees locks each; the division remainder is dropped).
class ForestLayout {
 public:
  /// `locks_per_tree` >= 8; `levels` is 3 (top/collection/page) or 4
  /// (top/db/collection/page).
  ForestLayout(std::uint32_t locks_per_tree, std::uint32_t levels);

  [[nodiscard]] std::uint32_t levels() const { return levels_; }
  [[nodiscard]] std::uint32_t locks_per_tree() const { return total_; }
  [[nodiscard]] std::uint32_t dbs() const { return dbs_; }
  [[nodiscard]] std::uint32_t collections() const { return collections_; }
  [[nodiscard]] std::uint32_t pages() const { return pages_; }

  // Dense tree-local lock ids, level-order.
  [[nodiscard]] LockId top_lock() const { return LockId{0}; }
  [[nodiscard]] LockId db_lock(std::uint32_t d) const { return LockId{1 + d}; }
  [[nodiscard]] LockId collection_lock(std::uint32_t c) const {
    return LockId{1 + dbs_ + c};
  }
  [[nodiscard]] LockId page_lock(std::uint32_t p) const {
    return LockId{1 + dbs_ + collections_ + p};
  }

  [[nodiscard]] std::uint32_t collection_of(std::uint32_t page) const {
    return page % collections_;
  }
  [[nodiscard]] std::uint32_t db_of(std::uint32_t collection) const {
    return dbs_ == 0 ? 0 : collection % dbs_;
  }

  /// Deterministic shard assignment: the whole tree, one shard.
  [[nodiscard]] static std::size_t shard_of(std::uint32_t tree,
                                            std::size_t shards) {
    return tree % shards;
  }
  /// Deterministic initial token placement, identical on every node of a
  /// tree: home node of a tree-local lock id.
  [[nodiscard]] static NodeId home_of(LockId local, std::uint32_t nodes) {
    return NodeId{local.value % nodes};
  }

 private:
  std::uint32_t levels_;
  std::uint32_t dbs_;          ///< 0 for 3-level trees
  std::uint32_t collections_;
  std::uint32_t pages_;
  std::uint32_t total_;
};

/// One drawn operation against a tree.
struct ForestOp {
  bool collection_scope{false};  ///< target the collection, not a page
  std::uint32_t page{0};         ///< Zipf-sampled page rank
  Mode leaf_mode{Mode::kR};
  Duration cs{0};
};

/// Per-(tree, node) op stream: Zipf-skewed page selection plus the spec's
/// mode mix and timing distributions. The mix maps onto the hierarchy as
///   p_entry_read  -> page R        p_entry_write -> page W
///   p_table_read  -> collection R  p_table_write -> collection W
///   p_upgrade     -> page U (exclusive read)
class ForestOpGen {
 public:
  /// `zipf` must outlive the generator (one shared table per forest).
  ForestOpGen(const WorkloadSpec& spec, const ZipfTable& zipf, Rng rng);

  [[nodiscard]] ForestOp next();
  [[nodiscard]] Duration next_idle();

  // --- multi-tree transactions (coupled-shard workload) -------------
  // All three draws come from this generator's own stream, in a fixed
  // order (coin, partner, page), so the cross-tree mix is deterministic
  // and invariant to the shard count. Callers must not draw the coin at
  // all when the feature is off (pct == 0) — that keeps uncoupled runs
  // byte-identical to pre-coupling builds.

  /// True with probability `pct`/100 (pct in (0, 100]).
  [[nodiscard]] bool draw_cross(double pct);
  /// Uniformly pick another tree of `trees` total, never `self`.
  [[nodiscard]] std::uint32_t pick_partner(std::uint32_t self,
                                           std::uint32_t trees);
  /// The second hierarchy's leg of a cross-tree transaction: a fresh
  /// Zipf-sampled page in the partner tree, accessed in the primary op's
  /// leaf mode (U collapses to W — the upgrade protocol is a
  /// single-tree affair, and the cross leg wants the conflict, not the
  /// upgrade choreography).
  [[nodiscard]] ForestOp next_partner(const ForestOp& primary);

  /// Append the multi-granularity lock plan for `op` (intents on every
  /// ancestor, leaf mode on the target) to `out`, which is cleared first.
  static void plan_for(const ForestLayout& layout, const ForestOp& op,
                       std::vector<lockmgr::PlanStep>& out);

 private:
  WorkloadSpec spec_;
  const ZipfTable& zipf_;
  Rng rng_;
};

}  // namespace hlock::workload
