// Poll-based single-threaded event loop with timers and cross-thread task
// posting. One loop runs per TCP node; the protocol engine and all socket
// I/O for that node live on the loop thread, which keeps the engines'
// single-threaded contract without any locking inside the protocol.
//
// One pass of run():
//   1. poll() the watched fds and the wake pipe;
//   2. run one round (below), so a task posted before an fd event its
//      poster caused runs before that event is dispatched;
//   3. dispatch every fd that is ready;
//   4. run rounds until nothing is due: each round runs the tasks posted
//      so far, then the timers already due once those have run. At
//      most kMaxRoundsPerPass rounds run, so work that keeps re-arming
//      itself with zero delay yields to the fds at least that often;
//   5. call the pass-end hook (TcpNode flushes the connections the pass
//      dirtied), then poll again.
//
// Wake rule: run() polls with timeout 0 while tasks are posted or a timer
// is due (only after the round cap cut a pass short), so a post made on
// the loop thread never writes the self-pipe. A post or stop() from
// another thread always writes one wake byte.
#pragma once

#include <atomic>
#include <chrono>
#include <thread>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <vector>

#include "common/executor.hpp"
#include "common/types.hpp"

namespace hlock::net {

class EventLoop final : public Executor {
 public:
  using IoFn = std::function<void(std::uint32_t revents)>;

  /// Most rounds of posted tasks and due timers one pass runs before it
  /// polls again (see the pass order above).
  static constexpr int kMaxRoundsPerPass = 64;

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
  /// Drop a pending timer and its callback; a no-op if it already fired
  /// or was cancelled.
  void cancel_timer(std::uint64_t id);

  /// Run `fn` on the loop thread at the end of every pass, after the
  /// last round and before the next poll. Set it before run().
  void on_pass_end(std::function<void()> fn) { pass_end_ = std::move(fn); }

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
  /// poll() calls made so far (tests pin the pass structure).
  [[nodiscard]] std::uint64_t polls() const {
    return polls_.load(std::memory_order_relaxed);
  }

 private:
  void wake();
  [[nodiscard]] bool has_posted();
  void drain_posted();
  void fire_due_timers();
  void run_rounds();
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
  std::mutex posted_mutex_;
  std::vector<std::function<void()>> posted_;
  /// The batch drain_posted() is running; it and posted_ swap storage,
  /// so steady-state posting reuses both vectors' capacity.
  std::vector<std::function<void()>> draining_;
  std::function<void()> pass_end_;
  std::atomic<std::uint64_t> wakeups_written_{0};
  std::atomic<std::uint64_t> polls_{0};
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_requested_{false};
  std::atomic<std::thread::id> loop_thread_{};
  std::chrono::steady_clock::time_point epoch_;
};

}  // namespace hlock::net
