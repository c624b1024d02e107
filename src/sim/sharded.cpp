#include "sim/sharded.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>

namespace hlock::sim {

ShardedSimulator::ShardedSimulator(std::size_t shards) {
  if (shards == 0) throw std::invalid_argument("need >= 1 shard");
  shards_.reserve(shards);
  for (std::size_t i = 0; i < shards; ++i)
    shards_.push_back(std::make_unique<Simulator>());
  mail_.resize(shards);
  posts_per_src_.assign(shards, 0);
}

std::uint64_t ShardedSimulator::events_processed() const {
  std::uint64_t total = 0;
  for (const auto& s : shards_) total += s->events_processed();
  return total;
}

std::uint64_t ShardedSimulator::cross_posts() const {
  std::uint64_t total = 0;
  for (const std::uint64_t n : posts_per_src_) total += n;
  return total;
}

void ShardedSimulator::post(std::size_t src, std::size_t dst, TimePoint t,
                            std::uint64_t key, Simulator::EventFn fn) {
  if (src >= shards_.size() || dst >= shards_.size())
    throw std::invalid_argument("post: shard index out of range");
  ++posts_per_src_[src];
  if (src == dst) {
    // Same shard: insert directly. The (t, key) heap ordering makes this
    // execute identically to the mailbox path.
    shards_[dst]->schedule_cross_at(t, key, std::move(fn));
    return;
  }
  mail_[src].push_back(CrossEvent{dst, t, key, std::move(fn)});
}

bool ShardedSimulator::drain_mailboxes() {
  bool any = false;
  for (auto& row : mail_) {
    for (CrossEvent& ev : row) {
      Simulator& dst = *shards_[ev.dst];
      if (ev.t <= dst.last_executed())
        throw std::runtime_error(
            "cross-shard event inside the executed horizon — lookahead "
            "exceeds the minimum event latency");
      // Landing at or before the destination's (idle) clock means the
      // previous window overshot: accept the event, let the clock roll
      // back, and re-derive T/H this round with it in the queue.
      if (ev.t <= dst.now()) ++window_revalidations_;
      dst.schedule_cross_at(ev.t, ev.key, std::move(ev.fn));
      ++mailbox_events_;
      any = true;
    }
    row.clear();
  }
  return any;
}

void ShardedSimulator::run_all(Duration lookahead, std::size_t threads,
                               std::uint64_t max_events) {
  if (lookahead < 0) throw std::invalid_argument("lookahead must be >= 0");
  rounds_ = 0;
  if (threads > 1 && shards_.size() > 1) {
    run_parallel(lookahead, std::min(threads, shards_.size()), max_events);
    return;
  }
  // Serial oracle: identical drain/window arithmetic, shards advanced in
  // index order on this thread. The windows partition each shard's pop
  // sequence without reordering it, and cross events order by (t, key)
  // regardless of when they are inserted, so this is the byte-identical
  // oracle for every parallel configuration.
  const std::uint64_t start = events_processed();
  for (;;) {
    drain_mailboxes();
    TimePoint t_min = Simulator::kNoEvent;
    for (const auto& s : shards_)
      t_min = std::min(t_min, s->next_event_time());
    if (t_min == Simulator::kNoEvent) return;  // mailboxes drained above
    const TimePoint horizon = t_min + lookahead;
    ++rounds_;
    const std::uint64_t done = events_processed() - start;
    const std::uint64_t budget = done > max_events ? 1 : max_events - done + 1;
    for (const auto& s : shards_) {
      if (s->next_event_time() <= horizon) s->run_until(horizon, budget);
    }
    if (events_processed() - start > max_events)
      throw std::runtime_error("sharded simulator event cap (livelock?)");
  }
}

void ShardedSimulator::run_parallel(Duration lookahead, std::size_t workers,
                                    std::uint64_t max_events) {
  // Persistent pool; one generation per round. Workers claim active
  // shards through an atomic cursor, so a shard runs on exactly one
  // thread per round — which also makes each mailbox row single-writer
  // within the round, and the barrier orders the rows before the
  // coordinator's drain.
  //
  // `idle` counts the workers that are done with the current generation.
  // The coordinator zeroes it when it opens a round and touches no round
  // state again until every worker has reported back, so a worker that
  // wakes late can never read `active`/`horizon`/`budget`/`cursor` while
  // they are being rebuilt for the next round, nor step a shard while the
  // coordinator reads it.
  std::mutex mutex;
  std::condition_variable work_cv;
  std::condition_variable done_cv;
  std::uint64_t generation = 0;
  bool stop = false;
  std::size_t idle = workers;
  std::vector<Simulator*> active;
  TimePoint horizon = 0;
  std::uint64_t budget = 0;
  std::atomic<std::size_t> cursor{0};

  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    pool.emplace_back([&] {
      std::uint64_t seen = 0;
      for (;;) {
        {
          std::unique_lock lk(mutex);
          work_cv.wait(lk, [&] { return stop || generation != seen; });
          if (stop) return;
          seen = generation;
        }
        for (std::size_t i; (i = cursor.fetch_add(1)) < active.size();)
          active[i]->run_until(horizon, budget);
        std::lock_guard lk(mutex);
        if (++idle == workers) done_cv.notify_one();
      }
    });
  }

  const std::uint64_t start = events_processed();
  for (;;) {
    drain_mailboxes();
    TimePoint t_min = Simulator::kNoEvent;
    for (const auto& s : shards_)
      t_min = std::min(t_min, s->next_event_time());
    if (t_min == Simulator::kNoEvent) break;
    ++rounds_;
    {
      std::unique_lock lk(mutex);
      horizon = t_min + lookahead;
      active.clear();
      for (const auto& s : shards_)
        if (s->next_event_time() <= horizon) active.push_back(s.get());
      cursor.store(0);
      const std::uint64_t done = events_processed() - start;
      budget = done > max_events ? 1 : max_events - done + 1;
      idle = 0;
      ++generation;
      work_cv.notify_all();
      done_cv.wait(lk, [&] { return idle == workers; });
    }
    if (events_processed() - start > max_events) break;  // joined below
  }
  {
    std::unique_lock lk(mutex);
    stop = true;
    work_cv.notify_all();
  }
  for (std::thread& t : pool) t.join();
  if (events_processed() - start > max_events)
    throw std::runtime_error("sharded simulator event cap (livelock?)");
}

void ShardedSimulator::drain_each(
    std::size_t threads, const std::function<void(std::size_t)>& fn) {
  rounds_ = 0;
  const std::size_t n = shards_.size();
  if (threads <= 1 || n == 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  // No rounds: each worker claims whole shards until none are left, and
  // the joins are the only synchronization. A failing shard stops further
  // claims; shards already running finish before the error is rethrown.
  std::atomic<std::size_t> cursor{0};
  std::mutex error_mutex;
  std::exception_ptr error;
  const std::size_t workers = std::min(threads, n);
  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    pool.emplace_back([&] {
      for (std::size_t i; (i = cursor.fetch_add(1)) < n;) {
        try {
          fn(i);
        } catch (...) {
          std::lock_guard lk(error_mutex);
          if (!error) error = std::current_exception();
          cursor.store(n);
        }
      }
    });
  }
  for (std::thread& t : pool) t.join();
  if (error) std::rethrow_exception(error);
}

}  // namespace hlock::sim
