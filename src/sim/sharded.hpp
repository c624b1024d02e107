// Shard-parallel drain of independent simulators.
//
// One Simulator per shard, each with its own event slab, heap and queue
// pool. The forest harness assigns every lock tree — a whole hierarchy
// plus its SimNetwork and nodes — to one shard, and only when no event
// ever crosses a tree: an uncoupled forest. Every shard then runs apart
// from the others (drain_each). The harness drains a shard's trees one
// at a time — kick one tree, run to an empty queue, rewind the
// clock to 0, next tree — so only one tree's engines, index and network
// are hot at once. This is byte-identical to any interleaved run: inside
// one Simulator a tree's own events are ordered by (t, seq), and their
// relative order does not depend on whether other trees' events sit
// between them — the same argument that makes shard counts
// byte-identical.
//
// A coupled forest (cross-tree transactions) builds a single shard and
// runs it with Simulator::run_all; its cross-tree events are keyed
// (Simulator::schedule_cross_at), so one simulator gives the one
// deterministic event order.
//
// Threads: a shard is claimed by exactly one worker, so every Simulator
// stays single-threaded. drain_each hands out whole shards through an
// atomic cursor and joins once at the end.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "sim/simulator.hpp"

namespace hlock::sim {

class ShardedSimulator {
 public:
  /// Create `shards` independent simulators (>= 1).
  explicit ShardedSimulator(std::size_t shards);

  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }
  [[nodiscard]] Simulator& shard(std::size_t i) { return *shards_[i]; }
  [[nodiscard]] const Simulator& shard(std::size_t i) const {
    return *shards_[i];
  }

  /// Events executed across all shards.
  [[nodiscard]] std::uint64_t events_processed() const;

  /// Always 0: there are no cross-shard mailboxes. Kept only for
  /// perfbench's `sim.sharded.mailbox_events` metric until
  /// ROADMAP item 11 drops it from the benchmark.
  [[nodiscard]] std::uint64_t mailbox_events() const { return 0; }
  /// Always 0: there are no windows to revalidate. Kept only for
  /// perfbench's `sim.sharded.window_revalidations` metric until
  /// ROADMAP item 11 drops it from the benchmark.
  [[nodiscard]] std::uint64_t window_revalidations() const { return 0; }

  /// Call `fn(i)` once for every shard i; `fn` drains that shard on its
  /// own and must not touch another shard. `threads` <= 1 or a single
  /// shard calls `fn` in shard-index order on this thread; otherwise up
  /// to `threads` workers claim whole shards through an atomic cursor.
  /// The first exception any `fn` throws is rethrown here once every
  /// worker has stopped.
  void drain_each(std::size_t threads,
                  const std::function<void(std::size_t shard)>& fn);

 private:
  /// unique_ptr for stable addresses: engines and networks capture
  /// Simulator& at construction.
  std::vector<std::unique_ptr<Simulator>> shards_;
};

}  // namespace hlock::sim
