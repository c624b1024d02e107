#include "harness/sweep_runner.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>

namespace hlock::harness {

SweepPoint make_point(Protocol protocol, std::size_t nodes,
                      const workload::WorkloadSpec& spec,
                      const core::EngineOptions& opts) {
  SweepPoint p;
  p.protocol = protocol;
  p.config.nodes = nodes;
  p.config.spec = spec;
  p.config.engine_opts = opts;
  return p;
}

SweepRunner::SweepRunner(SweepOptions options) : options_(options) {
  threads_ = options.threads != 0 ? options.threads
                                  : std::thread::hardware_concurrency();
  if (threads_ == 0) threads_ = 1;
  if (options_.repeat < 1) options_.repeat = 1;
}

void SweepRunner::for_each_index(std::size_t count,
                                 const std::function<void(std::size_t)>& fn) {
  if (count == 0) return;
  const std::size_t workers = std::min(threads_, count);
  if (workers <= 1) {
    // Serial fast path: --threads 1 must cost exactly what a plain loop
    // costs (no thread spawn, no atomics on the critical path).
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }

  std::atomic<std::size_t> next{0};
  std::mutex error_mutex;
  std::exception_ptr first_error;
  auto worker = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) return;
      try {
        fn(i);
      } catch (...) {
        const std::lock_guard<std::mutex> guard(error_mutex);
        if (!first_error) first_error = std::current_exception();
      }
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(workers - 1);
  for (std::size_t t = 1; t < workers; ++t) pool.emplace_back(worker);
  worker();
  for (std::thread& t : pool) t.join();
  if (first_error) std::rethrow_exception(first_error);
}

std::vector<ExperimentResult> SweepRunner::run(
    const std::vector<SweepPoint>& points) {
  std::vector<ExperimentResult> results(points.size());
  for_each_index(points.size(), [&](std::size_t i) {
    for (int r = 0; r < options_.repeat; ++r)
      results[i] = run_experiment(points[i].protocol, points[i].config);
  });
  return results;
}

}  // namespace hlock::harness
