#include "sim/simulator.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace hlock::sim {

Simulator::Event& Simulator::push_event(TimePoint t, std::uint64_t key) {
  if (t < now_) throw std::logic_error("scheduling into the past");
  std::uint32_t i;
  if (!free_.empty()) {
    i = free_.back();
    free_.pop_back();
  } else {
    i = slots_++;
    if ((i & (kChunkSize - 1)) == 0)
      chunks_.push_back(std::make_unique<Event[]>(kChunkSize));
  }
  heap_.push_back(HeapKey{t, key, next_seq_++, i});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  return slot(i);
}

void Simulator::schedule_at(TimePoint t, EventFn fn) {
  push_event(t, /*key=*/0).fn = std::move(fn);
}

void Simulator::schedule_cross_at(TimePoint t, std::uint64_t key,
                                  EventFn fn) {
  if (key == 0) throw std::logic_error("cross events need a nonzero key");
  if (t < now_) {
    // The conservative window ran this shard's clock past `t` while it
    // was idle. Nothing after last_executed_ has run, so accepting the
    // event and rolling the idle clock back is exact; at or before
    // last_executed_ the history already contradicts it.
    if (t <= last_executed_)
      throw std::logic_error(
          "cross event inside the executed horizon (lookahead unsafe)");
    now_ = t;
  }
  push_event(t, key).fn = std::move(fn);
}

void Simulator::schedule_deliver_at(TimePoint t, DeliverFn fn, void* ctx,
                                    NodeId from, NodeId to, Message&& msg) {
  Event& ev = push_event(t, /*key=*/0);
  ev.deliver = fn;
  ev.ctx = ctx;
  ev.from = from;
  ev.to = to;
  ev.msg = std::move(msg);
}

std::vector<QueuedRequest> Simulator::acquire_queue_buffer() {
  if (queue_pool_.empty()) return {};
  std::vector<QueuedRequest> q = std::move(queue_pool_.back());
  queue_pool_.pop_back();
  return q;
}

void Simulator::recycle_queue_buffer(std::vector<QueuedRequest>&& q) {
  if (q.capacity() == 0 || queue_pool_.size() >= kQueuePoolCapacity) return;
  q.clear();
  queue_pool_.push_back(std::move(q));
}

bool Simulator::step() {
  if (heap_.empty()) return false;
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  const HeapKey key = heap_.back();
  heap_.pop_back();
  // Run the event in its slot: chunks never move, so scheduling from the
  // handler cannot invalidate `ev`, and the slot stays off the free list
  // until the handler is done. It goes back blank (no closure, no deliver
  // callback, no queue storage), so the schedule_* calls fill in only
  // their own fields.
  Event& ev = slot(key.slot);
  now_ = key.t;
  last_executed_ = key.t;
  ++processed_;
  if (ev.deliver != nullptr) {
    ev.deliver(ev.ctx, ev.from, ev.to, ev.msg);
    recycle_queue_buffer(std::move(ev.msg.queue));
    ev.deliver = nullptr;
  } else {
    ev.fn();
    ev.fn = nullptr;  // releases the closure's captures now
  }
  free_.push_back(key.slot);
  if (post_event_hook) post_event_hook();
  return true;
}

void Simulator::run_until(TimePoint deadline) {
  while (!heap_.empty() && heap_.front().t <= deadline) step();
  if (now_ < deadline) now_ = deadline;
}

std::uint64_t Simulator::run_until(TimePoint deadline,
                                   std::uint64_t max_events) {
  std::uint64_t n = 0;
  while (!heap_.empty() && heap_.front().t <= deadline) {
    if (n >= max_events) return n;  // budget exhausted mid-window
    step();
    ++n;
  }
  if (now_ < deadline) now_ = deadline;
  return n;
}

void Simulator::run_all(std::uint64_t max_events) {
  std::uint64_t n = 0;
  while (step()) {
    if (++n > max_events)
      throw std::runtime_error("simulator event cap exceeded (livelock?)");
  }
}

}  // namespace hlock::sim
