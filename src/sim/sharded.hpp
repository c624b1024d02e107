// Shard-parallel discrete-event simulation with cross-shard channels.
//
// One Simulator per shard, each with its own event slab, heap and queue
// pool (the PR 3 cache-lean core, unchanged). The harness assigns every
// lock tree — a whole hierarchy plus its SimNetwork and nodes — to one
// shard. There are two ways to run the shards.
//
// Uncoupled (drain_each): when no event ever crosses a shard, every shard
// runs apart from the others, with no windows, no mailboxes and no
// barrier, and rounds() reads 0. The forest harness drains a shard's
// trees one at a time — kick one tree, run to an empty queue, rewind the
// clock to 0, next tree — so only one tree's engines, index and network
// are hot at once. This is byte-identical to any interleaved run: inside
// one Simulator a tree's own events are ordered by (t, seq), and their
// relative order does not depend on whether other trees' events sit
// between them — the same argument that already makes shard counts
// byte-identical.
//
// Coupled (run_all): multi-tree transactions post events across shards,
// so the shards advance in conservative windows (classic synchronous
// PDES). Windows, mailboxes and revalidation below serve coupled runs
// only:
//
//   round: drain cross-shard mailboxes into destination shards
//          T    = min over shards of next_event_time()
//          H    = T + lookahead        (lookahead < min event latency)
//          each shard with work <= H runs run_until(H), in parallel
//          barrier; repeat until every queue AND every mailbox drains
//
// Cross-shard traffic goes through post(): the source shard appends to
// its private mailbox row during the round, and the coordinator drains
// every row at the next round barrier — batched null messages, amortized
// to one drain per round. Each cross event carries a deterministic order
// key (source tree, per-source counter); Simulator orders keyed events
// by (t, key) independent of insertion time, so a run where source and
// destination share a shard (direct insertion at send time) is
// bit-identical to one where the event rides a mailbox (insertion at the
// barrier). That, plus the strict lookahead bound (`lookahead < minimum
// cross-event latency`, so every arrival lands strictly beyond the
// window it was sent in), keeps sharded runs byte-identical to the
// serial oracle — which is exactly what the CI coupled determinism step
// compares.
//
// Window revalidation: the drain re-checks every arrival against the
// destination's clock. An arrival at t <= last_executed() contradicts
// history — the run aborts (throws); the lookahead was unsafe. An
// arrival inside (last_executed(), now()] only means the previous window
// overshot an idle stretch: the destination clock rolls back, the round's
// T/H derivation starts over from scratch including the new event, and a
// revalidation counter records that the window was re-derived.
//
// Threads: in both modes a shard is claimed by exactly one worker at a
// time, so every Simulator stays single-threaded. drain_each hands out
// whole shards through an atomic cursor and joins once at the end. In
// run_all the round barrier (mutex + condvar) provides the cross-round
// happens-before edge when a shard migrates between workers (mailbox
// rows are written only by their source shard's worker and read only by
// the coordinator after the barrier).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/types.hpp"
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
  /// Conservative-window rounds executed by the last run_all() call; 0
  /// after drain_each(). Depends on the shard count and lookahead —
  /// diagnostic only, never part of deterministic output.
  [[nodiscard]] std::uint64_t rounds() const { return rounds_; }

  /// Post a cross-shard event: run `fn` on shard `dst` at time `t` with
  /// deterministic order `key` (> 0, globally unique — see
  /// Simulator::schedule_cross_at). Must be called from the thread
  /// currently advancing shard `src` (or outside run_all): same-shard
  /// posts insert directly, cross-shard posts ride `src`'s private
  /// mailbox row until the next round barrier. `t` must be strictly
  /// beyond the current window's horizon, which the caller guarantees by
  /// sampling the event latency >= lookahead + 1.
  void post(std::size_t src, std::size_t dst, TimePoint t,
            std::uint64_t key, Simulator::EventFn fn);

  /// Cross-shard posts that went through a mailbox (src != dst). Depends
  /// on the shard count — diagnostic only, stderr reporting.
  [[nodiscard]] std::uint64_t mailbox_events() const {
    return mailbox_events_;
  }
  /// All post() calls, including same-shard direct insertions.
  [[nodiscard]] std::uint64_t cross_posts() const;
  /// Rounds whose T/H had to be re-derived because an arrival landed
  /// inside an already-run (but idle) window stretch.
  [[nodiscard]] std::uint64_t window_revalidations() const {
    return window_revalidations_;
  }

  /// Advance every shard until all queues and mailboxes drain.
  /// `lookahead` is the conservative window beyond the global minimum
  /// next-event time; it must be *strictly below* the minimum latency of
  /// every cross-shard event (use min_latency() - 1; must be >= 0).
  /// `threads` caps the worker pool; <= 1 or a single shard runs the
  /// serial path — identical window/drain arithmetic, each shard
  /// advanced in shard-index order on the calling thread, the
  /// bit-identical oracle for any parallel configuration. Throws if more
  /// than `max_events` run in total; the remaining budget is plumbed
  /// into every per-shard run_until, so even a zero-lookahead livelock
  /// inside one window stops promptly instead of running away.
  void run_all(Duration lookahead, std::size_t threads,
               std::uint64_t max_events = 2'000'000'000);

  /// Uncoupled runs: call `fn(i)` once for every shard i; `fn` drains
  /// that shard on its own and must not post() to another shard. No
  /// windows and no barrier, so rounds() reads 0 afterwards. `threads`
  /// <= 1 or a single shard calls `fn` in shard-index order on this
  /// thread; otherwise up to `threads` workers claim whole shards through
  /// an atomic cursor. The first exception any `fn` throws is rethrown
  /// here once every worker has stopped.
  void drain_each(std::size_t threads,
                  const std::function<void(std::size_t shard)>& fn);

 private:
  struct CrossEvent {
    std::size_t dst;
    TimePoint t;
    std::uint64_t key;
    Simulator::EventFn fn;
  };

  void run_parallel(Duration lookahead, std::size_t workers,
                    std::uint64_t max_events);
  /// Move every mailbox row into its destination shards, revalidating
  /// each arrival's timestamp. Returns true if any event was delivered.
  bool drain_mailboxes();

  /// unique_ptr for stable addresses: engines and networks capture
  /// Simulator& at construction.
  std::vector<std::unique_ptr<Simulator>> shards_;
  /// mail_[src]: events posted by shard src this round, drained by the
  /// coordinator at the next barrier. Single-writer per row, like the
  /// post counters (summed on demand, so post() needs no atomics).
  std::vector<std::vector<CrossEvent>> mail_;
  std::vector<std::uint64_t> posts_per_src_;
  std::uint64_t rounds_{0};
  std::uint64_t mailbox_events_{0};
  std::uint64_t window_revalidations_{0};
};

}  // namespace hlock::sim
