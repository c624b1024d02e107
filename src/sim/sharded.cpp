#include "sim/sharded.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <thread>

namespace hlock::sim {

ShardedSimulator::ShardedSimulator(std::size_t shards) {
  if (shards == 0) throw std::invalid_argument("need >= 1 shard");
  shards_.reserve(shards);
  for (std::size_t i = 0; i < shards; ++i)
    shards_.push_back(std::make_unique<Simulator>());
}

std::uint64_t ShardedSimulator::events_processed() const {
  std::uint64_t total = 0;
  for (const auto& s : shards_) total += s->events_processed();
  return total;
}

void ShardedSimulator::drain_each(
    std::size_t threads, const std::function<void(std::size_t)>& fn) {
  const std::size_t n = shards_.size();
  if (threads <= 1 || n == 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  // Each worker claims whole shards until none are left, and the joins
  // are the only synchronization. A failing shard stops further claims;
  // shards already running finish before the error is rethrown.
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
