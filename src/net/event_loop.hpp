// Poll-based single-threaded event loop with timers and cross-thread task
// posting. One loop runs per TCP node; the protocol engine and all socket
// I/O for that node live on the loop thread, which keeps the engines'
// single-threaded contract without any locking inside the protocol.
//
// Wake rule: run() polls with timeout 0 while the posted queue is
// non-empty, so a post made on the loop thread never writes the self-pipe.
// A post or stop() from another thread always writes one wake byte.
#pragma once

#include <atomic>
#include <chrono>
#include <thread>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <set>
#include <vector>

#include "common/executor.hpp"
#include "common/types.hpp"

namespace hlock::net {

class EventLoop final : public Executor {
 public:
  using IoFn = std::function<void(std::uint32_t revents)>;

  EventLoop();
  ~EventLoop() override;
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Watch `fd` for the given poll events (POLLIN etc.); `fn` runs on the
  /// loop thread when any fire. Replaces an existing watch for `fd`.
  void watch(int fd, short events, IoFn fn);
  void unwatch(int fd);

  /// Run `fn` on the loop thread as soon as possible, after every task
  /// posted before it. Thread-safe; see the wake rule above.
  void post(std::function<void()> fn);

  // Executor: timers on the loop thread. schedule() is loop-thread-only;
  // cross-thread callers use post() and schedule from inside.
  void schedule(Duration delay, std::function<void()> fn) override;
  [[nodiscard]] TimePoint now() const override;

  /// Like schedule(), but returns a token the caller may later pass to
  /// cancel_timer() (loop thread only). Tokens are never reused.
  std::uint64_t schedule_cancellable(Duration delay, std::function<void()> fn);
  /// Drop a pending timer; a no-op if it already fired or was cancelled.
  void cancel_timer(std::uint64_t id);

  /// Process events until stop() is called.
  void run();
  /// Request the loop to exit. Thread-safe.
  void stop();

  [[nodiscard]] bool running() const { return running_.load(); }
  /// True when called from the thread currently executing run().
  [[nodiscard]] bool on_loop_thread() const;

  /// Bytes written to the wake pipe so far (tests pin the wake rule).
  [[nodiscard]] std::uint64_t wakeups_written() const {
    return wakeups_written_.load(std::memory_order_relaxed);
  }

 private:
  void wake();
  [[nodiscard]] bool has_posted();
  void drain_posted();
  void fire_due_timers();
  [[nodiscard]] int next_timeout_ms() const;

  struct Timer {
    TimePoint due;
    std::uint64_t seq;
    std::function<void()> fn;
    bool operator>(const Timer& o) const {
      if (due != o.due) return due > o.due;
      return seq > o.seq;
    }
  };

  int wake_fds_[2];  ///< self-pipe for post()/stop() wakeups
  std::map<int, std::pair<short, IoFn>> watches_;
  /// Min-heap on (due, seq) kept with std::push_heap/pop_heap, so a due
  /// callback can be moved out of the back slot instead of copied.
  std::vector<Timer> timers_;
  std::uint64_t timer_seq_{0};
  /// Tokens cancelled while still queued; entries are erased when the
  /// matching heap entry pops (the heap itself has no random removal).
  std::set<std::uint64_t> cancelled_timers_;
  std::mutex posted_mutex_;
  std::vector<std::function<void()>> posted_;
  std::atomic<std::uint64_t> wakeups_written_{0};
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_requested_{false};
  std::atomic<std::thread::id> loop_thread_{};
  std::chrono::steady_clock::time_point epoch_;
};

}  // namespace hlock::net
