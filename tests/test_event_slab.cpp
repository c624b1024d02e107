// Tests for the simulator's index-heap-over-slab event core:
// equal-timestamp FIFO across slot reuse, run_until boundary behavior,
// free-list recycling under churn, queue-buffer pooling, the
// zero-steady-state-allocation guarantee, and what running events in
// place relies on (a handler's Message survives slab growth, its slot is
// not reused while it runs, closure captures die with the step), and
// rewind() restarting the clock of a drained simulator.
//
// This file overrides the global allocation functions to count heap
// traffic. Each test file builds into its own executable (see
// tests/CMakeLists.txt), so the override cannot leak into other tests.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <stdexcept>
#include <vector>

#include "sim/simulator.hpp"

namespace {
// Not atomic: the simulator and these tests are single-threaded.
std::uint64_t g_allocs = 0;
}  // namespace

void* operator new(std::size_t n) {
  ++g_allocs;
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace hlock::sim {
namespace {

// A capture-less deliver callback: bumps a per-test counter through ctx.
void count_delivery(void* ctx, NodeId /*from*/, NodeId /*to*/,
                    Message& /*m*/) {
  ++*static_cast<int*>(ctx);
}

Message marked_message(std::uint32_t lock, std::uint32_t entries) {
  Message m;
  m.kind = MsgKind::kToken;
  m.lock = LockId{lock};
  for (std::uint32_t i = 0; i < entries; ++i)
    m.queue.push_back(QueuedRequest{NodeId{i}, Mode::kW, {}, false, 0});
  return m;
}

bool has_marks(const Message& m, std::uint32_t lock, std::uint32_t entries) {
  if (m.kind != MsgKind::kToken || m.lock != LockId{lock} ||
      m.queue.size() != entries)
    return false;
  for (std::uint32_t i = 0; i < entries; ++i) {
    if (m.queue[i].requester != NodeId{i} || m.queue[i].mode != Mode::kW)
      return false;
  }
  return true;
}

/// Context of a deliver handler that schedules `fanout` more deliveries
/// while it runs and records what it saw of the simulator and its own
/// Message afterwards.
struct FanoutProbe {
  Simulator* sim{nullptr};
  int fanout{0};
  std::size_t free_at_entry{0};
  std::size_t slab_at_entry{0};
  std::size_t slab_after{0};
  bool intact_after{false};
  int leaves{0};
};

void count_leaf(void* ctx, NodeId, NodeId, Message&) {
  ++static_cast<FanoutProbe*>(ctx)->leaves;
}

void fan_out(void* ctx, NodeId, NodeId, Message& m) {
  auto* p = static_cast<FanoutProbe*>(ctx);
  p->free_at_entry = p->sim->free_slots();
  p->slab_at_entry = p->sim->slab_size();
  for (int i = 0; i < p->fanout; ++i) {
    const auto lock = static_cast<std::uint32_t>(1000 + i);
    p->sim->schedule_deliver_at(p->sim->now() + 1, &count_leaf, p, NodeId{0},
                                NodeId{1}, marked_message(lock, 2));
  }
  p->slab_after = p->sim->slab_size();
  p->intact_after = has_marks(m, 42, 5);
}

TEST(EventSlab, HandlerMessageSurvivesSlabGrowthMidHandler) {
  Simulator s;
  FanoutProbe probe{&s, /*fanout=*/200};
  s.schedule_deliver_at(1, &fan_out, &probe, NodeId{0}, NodeId{1},
                        marked_message(42, 5));
  ASSERT_TRUE(s.step());
  // 200 new events need slots beyond the first 64-event chunk, so the slab
  // grew by several chunks while the handler held its Message.
  EXPECT_EQ(probe.slab_at_entry, 1u);
  EXPECT_GT(probe.slab_after, 3 * 64u);
  EXPECT_TRUE(probe.intact_after) << "handler's Message changed under it";
  s.run_all();
  EXPECT_EQ(probe.leaves, 200);
}

TEST(EventSlab, RunningEventsSlotIsNotReusedUntilItsHandlerReturns) {
  Simulator s;
  FanoutProbe probe{&s, /*fanout=*/1};
  s.schedule_deliver_at(1, &fan_out, &probe, NodeId{0}, NodeId{1},
                        marked_message(42, 5));
  ASSERT_TRUE(s.step());
  // The running event's slot was the only one and stayed off the free
  // list, so the event it scheduled got a new slot and did not overwrite
  // the Message still in use.
  EXPECT_EQ(probe.free_at_entry, 0u);
  EXPECT_EQ(probe.slab_after, 2u);
  EXPECT_TRUE(probe.intact_after);
  // Once the handler returned, its slot went back on the free list.
  EXPECT_EQ(s.free_slots(), 1u);
  s.run_all();
  EXPECT_EQ(s.free_slots(), s.slab_size());
}

TEST(EventSlab, ClosureCapturesDieWithTheStepThatRanThem) {
  Simulator s;
  auto token = std::make_shared<int>(7);
  int seen = 0;
  s.schedule_at(1, [token, &seen] { seen = *token; });
  EXPECT_EQ(token.use_count(), 2);
  ASSERT_TRUE(s.step());
  EXPECT_EQ(seen, 7);
  // The slot stays in the slab for reuse, but the closure in it must not
  // keep its captures alive until then.
  EXPECT_EQ(token.use_count(), 1);
}

TEST(EventSlab, EqualTimestampFifoSurvivesSlotReuse) {
  Simulator s;
  // Churn first so the free list is populated and non-trivially ordered:
  // six events at distinct times leave free_ = [0..5], handed back out in
  // *reverse* (stack) order. Slot indices assigned below therefore
  // decrease while insertion order increases — FIFO must follow seq, not
  // slot.
  for (int i = 0; i < 6; ++i) s.schedule_at(i + 1, [] {});
  s.run_all();
  ASSERT_GE(s.free_slots(), 6u);

  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    s.schedule_at(100, [&order, i] { order.push_back(i); });
  }
  s.run_all();
  ASSERT_EQ(order.size(), 10u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[static_cast<std::size_t>(i)], i) << "slot reuse broke FIFO";
  }
}

TEST(EventSlab, RunUntilIncludesBoundaryExcludesLater) {
  Simulator s;
  int hits = 0;
  s.schedule_at(49, [&] { ++hits; });
  s.schedule_at(50, [&] { ++hits; });  // exactly at the deadline: runs
  s.schedule_at(51, [&] { ++hits; });  // past the deadline: stays queued
  s.run_until(50);
  EXPECT_EQ(hits, 2);
  EXPECT_EQ(s.now(), 50);
  EXPECT_FALSE(s.empty());
  // The boundary event's slot was recycled; the t=51 event still occupies
  // its own slab slot.
  EXPECT_EQ(s.slab_size() - s.free_slots(), 1u);
  s.run_all();
  EXPECT_EQ(hits, 3);
}

TEST(EventSlab, FreeListRecyclesSlotsUnderChurn) {
  Simulator s;
  // Never more than 4 outstanding events, across 1000 schedule/step
  // cycles: the slab must plateau at the high-water mark, not grow with
  // total event count.
  for (int round = 0; round < 250; ++round) {
    for (int i = 0; i < 4; ++i) s.schedule_after(1, [] {});
    while (s.step()) {
    }
  }
  EXPECT_EQ(s.events_processed(), 1000u);
  EXPECT_LE(s.slab_size(), 4u);
  // Drained: every slot is back on the free list.
  EXPECT_EQ(s.free_slots(), s.slab_size());
}

TEST(EventSlab, DeliveredQueueStorageIsPooledAndReissued) {
  Simulator s;
  EXPECT_EQ(s.pooled_queue_buffers(), 0u);
  // Pool starts empty, so the first acquire mints a fresh (capacity-0)
  // vector.
  std::vector<QueuedRequest> q = s.acquire_queue_buffer();
  EXPECT_EQ(q.capacity(), 0u);
  q.push_back(QueuedRequest{NodeId{7}, Mode::kW, {}, false, 0});
  const std::size_t cap = q.capacity();
  ASSERT_GT(cap, 0u);

  int delivered = 0;
  Message m;
  m.queue = std::move(q);
  s.schedule_deliver_at(1, &count_delivery, &delivered, NodeId{0}, NodeId{1},
                        std::move(m));
  s.run_all();
  EXPECT_EQ(delivered, 1);
  // The drained queue's storage came back to the pool...
  ASSERT_EQ(s.pooled_queue_buffers(), 1u);
  // ...and the next acquire hands it back out: empty, capacity retained.
  std::vector<QueuedRequest> reused = s.acquire_queue_buffer();
  EXPECT_EQ(s.pooled_queue_buffers(), 0u);
  EXPECT_TRUE(reused.empty());
  EXPECT_GE(reused.capacity(), cap);
}

TEST(EventSlab, QueuePoolIgnoresEmptyAndRespectsCap) {
  Simulator s;
  // Capacity-0 vectors carry nothing worth pooling.
  s.recycle_queue_buffer({});
  EXPECT_EQ(s.pooled_queue_buffers(), 0u);
  // The pool is bounded: recycling far more buffers than the cap must not
  // hoard memory.
  for (int i = 0; i < 200; ++i) {
    std::vector<QueuedRequest> q;
    q.reserve(4);
    s.recycle_queue_buffer(std::move(q));
  }
  EXPECT_LE(s.pooled_queue_buffers(), 64u);
  EXPECT_GT(s.pooled_queue_buffers(), 0u);
}

TEST(EventSlab, RewindRestartsTheClockOnlyWhenDrained) {
  Simulator sim;
  int ran = 0;
  sim.schedule_at(50, [&] { ++ran; });
  EXPECT_THROW(sim.rewind(), std::logic_error);  // an event is queued
  sim.run_all();
  EXPECT_EQ(sim.now(), 50);
  EXPECT_THROW(sim.schedule_at(0, [] {}), std::logic_error);  // the past
  sim.rewind();
  EXPECT_EQ(sim.now(), 0);
  sim.schedule_at(0, [&] { ++ran; });
  sim.run_all();
  EXPECT_EQ(ran, 2);
  EXPECT_EQ(sim.events_processed(), 2u);
}

TEST(EventSlab, SteadyStateSchedulesWithZeroHeapAllocations) {
  Simulator s;
  int delivered = 0;
  // One schedule/step cycle of the dominant event shape: a message
  // delivery shipping a small queue, drawn from and returned to the pool.
  const auto churn_once = [&] {
    Message m;
    m.queue = s.acquire_queue_buffer();
    m.queue.push_back(QueuedRequest{NodeId{3}, Mode::kR, {}, false, 0});
    s.schedule_deliver_at(s.now() + 1, &count_delivery, &delivered, NodeId{0},
                          NodeId{1}, std::move(m));
    s.step();
  };
  // Warm up: first cycles mint the queue buffer (the heap/slab/free-list
  // vectors are pre-reserved by the constructor).
  for (int i = 0; i < 100; ++i) churn_once();
  ASSERT_EQ(delivered, 100);

  const std::uint64_t before = g_allocs;
  for (int i = 0; i < 1000; ++i) churn_once();
  const std::uint64_t after = g_allocs;
  EXPECT_EQ(delivered, 1100);
  EXPECT_EQ(after - before, 0u)
      << "steady-state event churn must not touch the heap";
}

}  // namespace
}  // namespace hlock::sim
