// Deterministic discrete-event simulator core.
//
// Substitute for the paper's physical cluster (see DESIGN.md §3): both
// protocols are pure message-passing state machines, so running them over
// a virtual-time event queue reproduces the reported metrics (messages per
// request, latency as a factor of point-to-point latency) while letting a
// single machine model 120 nodes deterministically.
//
// Hot-path design: message deliveries dominate the event mix, and a
// std::function closure capturing a Message always heap-allocates. Events
// therefore come in two shapes — a generic closure (timers, workload
// drivers, whose small captures fit std::function's inline storage) and a
// dedicated deliver variant (function pointer + context + inline Message)
// that never allocates.
//
// The queue itself is an *index heap over a slab*: the binary heap orders
// 32-byte (t, key, seq, slot) keys while the fat Event payloads (~200
// bytes — a std::function plus a Message carrying a QueuedRequest vector)
// live in a slab of fixed 64-event chunks. Chunks are never moved, so an
// event is written straight into its slot when scheduled and runs right
// there: a handler may schedule (and so grow the slab) while it reads its
// own Message by reference. A slot returns to the free list only after
// its handler is done. Every sift moves a key, not a payload. Slots and
// heap storage are recycled, so steady-state scheduling performs zero heap
// allocations per event (tests/test_event_slab.cpp counts them). Drained
// Message::queue vectors are returned to a per-simulator pool and handed
// back out through Transport::acquire_queue_buffer(), so token transfers
// stop churning the allocator too.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <vector>

#include "common/types.hpp"
#include "msg/message.hpp"

namespace hlock::sim {

/// Virtual-time event loop. Events at equal timestamps run in insertion
/// order, which makes every run bit-reproducible from the workload seed.
class Simulator {
 public:
  using EventFn = std::function<void()>;
  /// Deliver-event callback: plain function pointer + untyped context, so
  /// the dominant event shape (message delivery) never heap-allocates.
  using DeliverFn = void (*)(void* ctx, NodeId from, NodeId to, Message& m);

  Simulator() {
    heap_.reserve(kInitialHeapCapacity);
    chunks_.reserve(kInitialHeapCapacity / kChunkSize);
    free_.reserve(kInitialHeapCapacity);
    queue_pool_.reserve(kQueuePoolCapacity);
  }

  /// Schedule `fn` at absolute virtual time `t` (>= now()).
  void schedule_at(TimePoint t, EventFn fn);
  /// Schedule `fn` `d` after the current virtual time.
  void schedule_after(Duration d, EventFn fn) { schedule_at(now_ + d, std::move(fn)); }
  /// Schedule a *cross-shard* event with a deterministic order key
  /// (`key` > 0, unique per event — the sharded runner derives it from
  /// the source tree id and a per-source counter). Ordering is
  /// insertion-time-independent: at equal timestamps every keyed event
  /// runs after all local (key == 0) events and keyed events order among
  /// themselves by key, so a run where the event is inserted directly at
  /// send time (source and destination share a simulator) executes
  /// identically to one where it arrives later through a round-barrier
  /// mailbox drain. `t` may lie at or before now() when the conservative
  /// window overshot an idle stretch — the idle clock rolls back, which
  /// is sound because nothing after last_executed() has run; t at or
  /// before last_executed() is a genuine causality violation and throws.
  void schedule_cross_at(TimePoint t, std::uint64_t key, EventFn fn);
  /// Schedule a message delivery at `t`: `fn(ctx, from, to, msg)` runs as
  /// the event, with `msg` moved into the event's slot and handed to `fn`
  /// by reference from there.
  void schedule_deliver_at(TimePoint t, DeliverFn fn, void* ctx, NodeId from,
                           NodeId to, Message&& msg);

  [[nodiscard]] TimePoint now() const { return now_; }
  [[nodiscard]] bool empty() const { return heap_.empty(); }
  [[nodiscard]] std::uint64_t events_processed() const { return processed_; }
  /// Timestamp of the last event actually executed (kNever before any).
  /// run_until() advances now() to its deadline even past the last event,
  /// so this — not now() — is the boundary a late cross-shard arrival
  /// must stay strictly after to be causally safe.
  static constexpr TimePoint kNever = std::numeric_limits<TimePoint>::min();
  [[nodiscard]] TimePoint last_executed() const { return last_executed_; }

  /// Timestamp of the earliest scheduled event, or kNoEvent when the queue
  /// is empty. The sharded runner's conservative window computation peeks
  /// this across shards to pick each round's horizon.
  static constexpr TimePoint kNoEvent =
      std::numeric_limits<TimePoint>::max();
  [[nodiscard]] TimePoint next_event_time() const {
    return heap_.empty() ? kNoEvent : heap_.front().t;
  }

  /// Run the single earliest event. Returns false if none remain.
  bool step();
  /// Run until the queue drains or virtual time would pass `deadline`.
  void run_until(TimePoint deadline);
  /// Budgeted variant: additionally stop after `max_events` events, even
  /// with work still due at or before `deadline` (the sharded runner
  /// plumbs its remaining global event budget through here so a
  /// livelock inside one window cannot run away unboundedly). Returns
  /// the number of events executed; now() advances to `deadline` only
  /// when the window actually drained.
  std::uint64_t run_until(TimePoint deadline, std::uint64_t max_events);
  /// Run until the queue drains (or the event cap trips, which indicates a
  /// livelock bug and throws).
  void run_all(std::uint64_t max_events = 500'000'000);

  /// Borrow an empty QueuedRequest buffer, reusing the capacity of a
  /// previously delivered Message::queue when one is pooled. Senders that
  /// ship queues (token transfers, handoffs) fill these instead of
  /// growing a fresh vector from zero every time.
  [[nodiscard]] std::vector<QueuedRequest> acquire_queue_buffer();

  /// Recycle hook: drained Message::queue storage returns here (called
  /// internally after each deliver event; exposed for tests and for
  /// callers that drain a shipped queue themselves).
  void recycle_queue_buffer(std::vector<QueuedRequest>&& q);

  /// Pooled queue buffers currently idle (tests).
  [[nodiscard]] std::size_t pooled_queue_buffers() const {
    return queue_pool_.size();
  }
  /// Slab slots currently on the free list (tests).
  [[nodiscard]] std::size_t free_slots() const { return free_.size(); }
  /// Total slab slots ever materialized = high-water mark of concurrently
  /// scheduled events (tests).
  [[nodiscard]] std::size_t slab_size() const { return slots_; }

  /// Invoked after every event; the invariant probes in tests hang here.
  std::function<void()> post_event_hook;

 private:
  static constexpr std::size_t kInitialHeapCapacity = 1024;
  static constexpr std::size_t kQueuePoolCapacity = 64;
  static constexpr std::uint32_t kChunkShift = 6;
  static constexpr std::uint32_t kChunkSize = 1u << kChunkShift;

  /// Fat payload: written into its slot, run there, then the slot is freed.
  struct Event {
    EventFn fn;  ///< generic closure; empty for deliver events
    // Deliver-event payload (used when `deliver` is non-null).
    DeliverFn deliver{nullptr};
    void* ctx{nullptr};
    NodeId from{};
    NodeId to{};
    Message msg{};
  };
  /// What the binary heap actually sifts: 32 bytes, trivially copyable.
  /// `key` is 0 for local events (ordered by insertion seq, as always)
  /// and the deterministic cross-shard order key otherwise; at equal
  /// timestamps locals run before crosses and crosses order by key, so
  /// cross-event execution order never depends on insertion time.
  struct HeapKey {
    TimePoint t;
    std::uint64_t key;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  struct Later {
    bool operator()(const HeapKey& a, const HeapKey& b) const {
      if (a.t != b.t) return a.t > b.t;
      if (a.key != b.key) return a.key > b.key;
      return a.seq > b.seq;
    }
  };

  /// Claims a blank slot and queues its key; the caller fills the slot in.
  Event& push_event(TimePoint t, std::uint64_t key);
  Event& slot(std::uint32_t i) {
    return chunks_[i >> kChunkShift][i & (kChunkSize - 1)];
  }

  /// Binary min-heap of keys in Later order, kept by std::push_heap and
  /// std::pop_heap on a reserved vector.
  std::vector<HeapKey> heap_;
  /// Payload slab: slot i is chunks_[i >> 6][i & 63]. It grows a chunk at
  /// a time up to the high-water mark of outstanding events (slots_) and
  /// is then recycled through free_ forever.
  std::vector<std::unique_ptr<Event[]>> chunks_;
  std::uint32_t slots_{0};
  std::vector<std::uint32_t> free_;
  /// Idle Message::queue storage (capacity retained, size zero).
  std::vector<std::vector<QueuedRequest>> queue_pool_;
  TimePoint now_{0};
  TimePoint last_executed_{kNever};
  std::uint64_t next_seq_{0};
  std::uint64_t processed_{0};
};

}  // namespace hlock::sim
