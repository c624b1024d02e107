#include "net/event_loop.hpp"

#include <fcntl.h>
#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <system_error>

namespace hlock::net {

EventLoop::EventLoop() : epoch_(std::chrono::steady_clock::now()) {
  if (::pipe(wake_fds_) != 0)
    throw std::system_error(errno, std::generic_category(), "pipe");
  for (const int fd : wake_fds_) {
    ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
  }
}

EventLoop::~EventLoop() {
  ::close(wake_fds_[0]);
  ::close(wake_fds_[1]);
}

void EventLoop::watch(int fd, short events, IoFn fn) {
  watches_[fd] = {events, std::move(fn)};
}

void EventLoop::unwatch(int fd) { watches_.erase(fd); }

void EventLoop::wake() {
  const char byte = 1;
  // A full pipe already guarantees a pending wakeup.
  [[maybe_unused]] const auto n = ::write(wake_fds_[1], &byte, 1);
  wakeups_written_.fetch_add(1, std::memory_order_relaxed);
}

void EventLoop::post(std::function<void()> fn) {
  {
    const std::lock_guard<std::mutex> guard(posted_mutex_);
    posted_.push_back(std::move(fn));
  }
  // The loop thread checks the queue before it polls (see the wake rule).
  if (!on_loop_thread()) wake();
}

bool EventLoop::has_posted() {
  const std::lock_guard<std::mutex> guard(posted_mutex_);
  return !posted_.empty();
}

void EventLoop::schedule(Duration delay, std::function<void()> fn) {
  schedule_cancellable(delay, std::move(fn));
}

std::uint64_t EventLoop::schedule_cancellable(Duration delay,
                                              std::function<void()> fn) {
  const std::uint64_t id = timer_seq_++;
  timers_.push_back(Timer{now() + delay, id, std::move(fn)});
  std::push_heap(timers_.begin(), timers_.end(), std::greater<>{});
  return id;
}

void EventLoop::cancel_timer(std::uint64_t id) {
  // A linear find: the heap holds a handful of timers (the heartbeat, an
  // ack timer per connection, re-dials).
  const auto it = std::find_if(timers_.begin(), timers_.end(),
                               [id](const Timer& t) { return t.seq == id; });
  if (it == timers_.end()) return;
  // Remove it in place: make it the earliest entry, sift it up within the
  // prefix that ends at it (a prefix of a heap is a heap), then pop it.
  it->due = std::numeric_limits<TimePoint>::min();
  std::push_heap(timers_.begin(), it + 1, std::greater<>{});
  std::pop_heap(timers_.begin(), timers_.end(), std::greater<>{});
  timers_.pop_back();
}

TimePoint EventLoop::now() const {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

void EventLoop::drain_posted() {
  {
    const std::lock_guard<std::mutex> guard(posted_mutex_);
    draining_.swap(posted_);
  }
  for (auto& fn : draining_) fn();
  draining_.clear();
}

void EventLoop::fire_due_timers() {
  // Only timers that were due when this round's timer phase began: a
  // callback that re-arms itself with zero delay waits for the next round,
  // so posted tasks interleave with it and the round cap bounds the pass.
  const TimePoint round_now = now();
  const std::uint64_t round_seq = timer_seq_;
  while (!timers_.empty() && timers_.front().due <= round_now &&
         timers_.front().seq < round_seq) {
    std::pop_heap(timers_.begin(), timers_.end(), std::greater<>{});
    Timer due = std::move(timers_.back());
    timers_.pop_back();
    due.fn();
  }
}

void EventLoop::run_rounds() {
  for (int round = 0; round < kMaxRoundsPerPass; ++round) {
    const bool timer_due = !timers_.empty() && timers_.front().due <= now();
    if (!timer_due && !has_posted()) return;  // quiescent
    drain_posted();
    fire_due_timers();
  }
}

int EventLoop::next_timeout_ms() const {
  if (timers_.empty()) return 500;
  const Duration us = timers_.front().due - now();
  if (us <= 0) return 0;
  const Duration ms = us / 1000 + 1;
  return ms > 500 ? 500 : static_cast<int>(ms);
}

bool EventLoop::on_loop_thread() const {
  return running_.load() && loop_thread_.load() == std::this_thread::get_id();
}

void EventLoop::run() {
  loop_thread_.store(std::this_thread::get_id());
  running_.store(true);
  std::vector<pollfd> fds;
  std::vector<int> order;
  while (!stop_requested_.load()) {
    fds.clear();
    order.clear();
    fds.push_back({wake_fds_[0], POLLIN, 0});
    for (const auto& [fd, w] : watches_) {
      fds.push_back({fd, w.first, 0});
      order.push_back(fd);
    }
    // Tasks posted from this thread since the last drain wrote no wake
    // byte: do not block while they wait. (They, or a due timer, are left
    // over only when the round cap cut the last pass short.)
    const int timeout = has_posted() ? 0 : next_timeout_ms();
    polls_.fetch_add(1, std::memory_order_relaxed);
    const int rc = ::poll(fds.data(), fds.size(), timeout);
    if (rc < 0) {
      if (errno == EINTR) continue;
      throw std::system_error(errno, std::generic_category(), "poll");
    }
    if (fds[0].revents & POLLIN) {
      char sink[256];
      while (::read(wake_fds_[0], sink, sizeof sink) > 0) {
      }
    }
    // One round before the fds it reported: a task posted before poll()
    // returned (installing a handler, say) takes effect before any traffic
    // its poster went on to cause is dispatched.
    drain_posted();
    fire_due_timers();
    for (std::size_t i = 0; i < order.size(); ++i) {
      const short revents = fds[i + 1].revents;
      if (revents == 0) continue;
      // The callback may unwatch/close fds; re-check registration.
      const auto it = watches_.find(order[i]);
      if (it == watches_.end()) continue;
      auto fn = it->second.second;
      // POLLNVAL means the fd was closed while still watched (a stale
      // registration). Drop the watch before dispatching so a callback
      // that no longer recognises the fd cannot leave the loop spinning
      // on an invalid pollfd forever.
      if (revents & POLLNVAL) unwatch(order[i]);
      fn(static_cast<std::uint32_t>(revents));
    }
    run_rounds();
    if (pass_end_) pass_end_();
  }
  drain_posted();
  running_.store(false);
  stop_requested_.store(false);
}

void EventLoop::stop() {
  stop_requested_.store(true);
  // The loop thread sees the flag before it polls again.
  if (!on_loop_thread()) wake();
}

}  // namespace hlock::net
