#include "corba/concurrency.hpp"

#include <chrono>
#include <stdexcept>

namespace hlock::corba {

Mode to_core(LockMode m) {
  switch (m) {
    case LockMode::kRead: return Mode::kR;
    case LockMode::kWrite: return Mode::kW;
    case LockMode::kUpgrade: return Mode::kU;
    case LockMode::kIntentionRead: return Mode::kIR;
    case LockMode::kIntentionWrite: return Mode::kIW;
  }
  throw std::invalid_argument("bad LockMode");
}

LockMode from_core(Mode m) {
  switch (m) {
    case Mode::kR: return LockMode::kRead;
    case Mode::kW: return LockMode::kWrite;
    case Mode::kU: return LockMode::kUpgrade;
    case Mode::kIR: return LockMode::kIntentionRead;
    case Mode::kIW: return LockMode::kIntentionWrite;
    case Mode::kNone: break;
  }
  throw std::invalid_argument("mode has no LockMode equivalent");
}

// ---------------------------------------------------------------------------
// LockSet forwarding
// ---------------------------------------------------------------------------

LockHandle LockSet::lock(LockMode mode, std::uint8_t priority) {
  return service_->lock_blocking(id_, to_core(mode), priority);
}

std::optional<LockHandle> LockSet::try_lock(LockMode mode) {
  return service_->try_lock_now(id_, to_core(mode));
}

std::optional<LockHandle> LockSet::try_lock_for(LockMode mode,
                                                Duration timeout) {
  return service_->lock_with_deadline(id_, to_core(mode), timeout);
}

void LockSet::unlock(const LockHandle& handle) {
  service_->unlock_blocking(handle);
}

LockHandle LockSet::change_mode(const LockHandle& handle, LockMode new_mode) {
  return service_->change_mode_blocking(handle, to_core(new_mode));
}

// ---------------------------------------------------------------------------
// ConcurrencyService
// ---------------------------------------------------------------------------

ConcurrencyService::ConcurrencyService(net::TcpNode& node,
                                       core::EngineOptions opts)
    : node_(node), hls_(node.self(), node.transport(), opts) {
  hls_.set_on_acquired([this](LockId lock, RequestId id, Mode mode) {
    on_acquired(lock, id, mode);
  });
  hls_.set_on_upgraded(
      [this](LockId lock, RequestId id) { on_upgraded(lock, id); });
  node_.set_handler([this](const Message& m) { hls_.handle(m); });
}

ConcurrencyService::~ConcurrencyService() {
  // Clear the handler from the loop thread so no delivery can be running
  // inside our engines when they are destroyed.
  try {
    if (node_.loop().running()) {
      run_on_loop([this] { node_.set_handler(nullptr); });
    } else {
      node_.set_handler(nullptr);
    }
  } catch (...) {
    // Destructor: nothing sensible to do; the loop is likely gone.
  }
}

void ConcurrencyService::run_on_loop(const std::function<void()>& fn) {
  auto w = std::make_shared<Waiter>();
  node_.loop().post([w, &fn] {
    try {
      fn();
    } catch (...) {
      w->error = std::current_exception();
    }
    {
      const std::lock_guard<std::mutex> guard(w->mutex);
      w->done = true;
    }
    w->cv.notify_all();
  });
  std::unique_lock<std::mutex> lk(w->mutex);
  w->cv.wait(lk, [&] { return w->done; });
  if (w->error) std::rethrow_exception(w->error);
}

LockSet ConcurrencyService::create_lock_set(LockId id, NodeId initial_holder) {
  run_on_loop([&] { hls_.add_lock(id, initial_holder); });
  return LockSet(*this, id);
}

LockSet ConcurrencyService::lock_set(LockId id) {
  run_on_loop([&] { (void)hls_.engine(id); });  // validates existence
  return LockSet(*this, id);
}

LockHandle ConcurrencyService::lock_blocking(LockId id, Mode mode,
                                             std::uint8_t priority) {
  auto w = std::make_shared<Waiter>();
  node_.loop().post([this, id, mode, priority, w] {
    {
      const std::lock_guard<std::mutex> guard(mutex_);
      slot_ = w;
    }
    RequestId rid{};
    std::exception_ptr error;
    try {
      rid = hls_.engine(id).request_lock(mode, priority);
    } catch (...) {
      error = std::current_exception();
    }
    bool fulfilled;
    {
      const std::lock_guard<std::mutex> guard(mutex_);
      slot_.reset();
      {
        const std::lock_guard<std::mutex> wg(w->mutex);
        fulfilled = w->done;
        if (!fulfilled && error) {
          w->error = error;
          w->done = true;
          fulfilled = true;
        }
      }
      if (!fulfilled) {
        w->request = rid;
        waiters_[rid] = w;
      }
    }
    if (fulfilled) w->cv.notify_all();
  });

  std::unique_lock<std::mutex> lk(w->mutex);
  w->cv.wait(lk, [&] { return w->done; });
  if (w->error) std::rethrow_exception(w->error);
  const LockHandle handle{id, w->request, w->mode};
  lk.unlock();
  {
    const std::lock_guard<std::mutex> guard(mutex_);
    live_holds_.emplace(id, handle);
  }
  return handle;
}

std::optional<LockHandle> ConcurrencyService::try_lock_now(LockId id,
                                                           Mode mode) {
  std::optional<RequestId> rid;
  run_on_loop([&] { rid = hls_.engine(id).try_request_lock(mode); });
  if (!rid) return std::nullopt;
  const LockHandle handle{id, *rid, mode};
  {
    const std::lock_guard<std::mutex> guard(mutex_);
    live_holds_.emplace(id, handle);
  }
  return handle;
}

std::optional<LockHandle> ConcurrencyService::lock_with_deadline(
    LockId id, Mode mode, Duration timeout) {
  auto w = std::make_shared<Waiter>();
  node_.loop().post([this, id, mode, w] {
    {
      const std::lock_guard<std::mutex> guard(mutex_);
      slot_ = w;
    }
    RequestId rid{};
    std::exception_ptr error;
    try {
      rid = hls_.engine(id).request_lock(mode);
    } catch (...) {
      error = std::current_exception();
    }
    bool fulfilled;
    {
      const std::lock_guard<std::mutex> guard(mutex_);
      slot_.reset();
      {
        const std::lock_guard<std::mutex> wg(w->mutex);
        fulfilled = w->done;
        if (!fulfilled && error) {
          w->error = error;
          w->done = true;
          fulfilled = true;
        }
        if (!fulfilled) w->request = rid;  // visible to the timeout path
      }
      if (!fulfilled) waiters_[rid] = w;
    }
    if (fulfilled) w->cv.notify_all();
  });

  std::unique_lock<std::mutex> lk(w->mutex);
  const bool granted = w->cv.wait_for(
      lk, std::chrono::microseconds(timeout), [&] { return w->done; });
  if (granted) {
    if (w->error) std::rethrow_exception(w->error);
    const LockHandle handle{id, w->request, w->mode};
    lk.unlock();
    const std::lock_guard<std::mutex> guard(mutex_);
    live_holds_.emplace(id, handle);
    return handle;
  }
  // Deadline expired: cancel on the loop thread. The grant may still race
  // us there; cancel() tells us which way it went. The request id is read
  // there too: loop posts run in order, so the request task has run by
  // then, even when the deadline expired before it started.
  lk.unlock();
  auto outcome = std::make_shared<Waiter>();
  node_.loop().post([this, id, w, outcome] {
    RequestId rid;
    {
      const std::lock_guard<std::mutex> wg(w->mutex);
      rid = w->request;
    }
    bool now_held = false;
    try {
      if (rid.valid()) now_held = !hls_.engine(id).cancel(rid);
    } catch (...) {
      outcome->error = std::current_exception();
    }
    {
      const std::lock_guard<std::mutex> guard(mutex_);
      waiters_.erase(rid);
    }
    {
      const std::lock_guard<std::mutex> og(outcome->mutex);
      outcome->done = true;
      outcome->request = now_held ? rid : RequestId{};
    }
    outcome->cv.notify_all();
  });
  std::unique_lock<std::mutex> ol(outcome->mutex);
  outcome->cv.wait(ol, [&] { return outcome->done; });
  if (outcome->error) std::rethrow_exception(outcome->error);
  if (!outcome->request.valid()) return std::nullopt;  // cleanly cancelled
  // The grant won the race: we hold the lock after all.
  std::unique_lock<std::mutex> lk2(w->mutex);
  w->cv.wait(lk2, [&] { return w->done; });  // callback already fired
  const LockHandle handle{id, w->request, w->mode};
  lk2.unlock();
  const std::lock_guard<std::mutex> guard(mutex_);
  live_holds_.emplace(id, handle);
  return handle;
}

void ConcurrencyService::unlock_blocking(const LockHandle& handle) {
  if (!handle.valid()) throw std::invalid_argument("invalid handle");
  run_on_loop([&] { hls_.engine(handle.lock).unlock(handle.request); });
  const std::lock_guard<std::mutex> guard(mutex_);
  const auto [begin, end] = live_holds_.equal_range(handle.lock);
  for (auto it = begin; it != end; ++it) {
    if (it->second.request == handle.request) {
      live_holds_.erase(it);
      break;
    }
  }
}

LockHandle ConcurrencyService::change_mode_blocking(const LockHandle& handle,
                                                    Mode new_mode) {
  if (!handle.valid()) throw std::invalid_argument("invalid handle");
  if (handle.mode == Mode::kU && new_mode == Mode::kW) {
    // Rule 7 upgrade: may block until every other holder drains.
    auto w = std::make_shared<Waiter>();
    {
      const std::lock_guard<std::mutex> guard(mutex_);
      waiters_[handle.request] = w;
    }
    node_.loop().post([this, handle, w] {
      try {
        hls_.engine(handle.lock).upgrade(handle.request);
      } catch (...) {
        {
          const std::lock_guard<std::mutex> guard(mutex_);
          waiters_.erase(handle.request);
        }
        {
          const std::lock_guard<std::mutex> wg(w->mutex);
          w->error = std::current_exception();
          w->done = true;
        }
        w->cv.notify_all();
      }
    });
    std::unique_lock<std::mutex> lk(w->mutex);
    w->cv.wait(lk, [&] { return w->done; });
    if (w->error) std::rethrow_exception(w->error);
    return LockHandle{handle.lock, handle.request, Mode::kW};
  }
  if (safe_downgrade(handle.mode, new_mode)) {
    run_on_loop(
        [&] { hls_.engine(handle.lock).downgrade(handle.request, new_mode); });
    return LockHandle{handle.lock, handle.request, new_mode};
  }
  throw std::logic_error(
      "change_mode supports U->W upgrades and safe downgrades only");
}

void ConcurrencyService::leave(LockId id, NodeId successor_if_root) {
  run_on_loop([&] { hls_.engine(id).leave(successor_if_root); });
}

void ConcurrencyService::recover(LockId id, std::uint32_t view,
                                 NodeId new_root,
                                 const std::set<NodeId>& survivors) {
  run_on_loop(
      [&] { hls_.engine(id).begin_recovery(view, new_root, survivors); });
}

void ConcurrencyService::recover_all(std::uint32_t view, NodeId new_root,
                                     const std::set<NodeId>& survivors) {
  // The view service commits on the loop thread itself; run_on_loop
  // would deadlock there (post-and-wait against our own thread).
  if (node_.loop().on_loop_thread()) {
    hls_.begin_recovery(view, new_root, survivors);
    return;
  }
  run_on_loop([&] { hls_.begin_recovery(view, new_root, survivors); });
}

void ConcurrencyService::drop_locks(LockId id) {
  std::vector<LockHandle> holds;
  {
    const std::lock_guard<std::mutex> guard(mutex_);
    const auto [begin, end] = live_holds_.equal_range(id);
    for (auto it = begin; it != end; ++it) holds.push_back(it->second);
  }
  for (auto it = holds.rbegin(); it != holds.rend(); ++it)
    unlock_blocking(*it);
}

void ConcurrencyService::on_acquired(LockId /*lock*/, RequestId id,
                                     Mode mode) {
  std::shared_ptr<Waiter> w;
  {
    const std::lock_guard<std::mutex> guard(mutex_);
    const auto it = waiters_.find(id);
    if (it != waiters_.end()) {
      w = it->second;
      waiters_.erase(it);
    } else if (slot_) {
      // Synchronous grant inside request_lock, before the id was known.
      w = slot_;
      slot_.reset();
    }
  }
  if (!w) return;  // e.g. a try_lock admission
  {
    const std::lock_guard<std::mutex> guard(w->mutex);
    w->done = true;
    w->request = id;
    w->mode = mode;
  }
  w->cv.notify_all();
}

void ConcurrencyService::on_upgraded(LockId /*lock*/, RequestId id) {
  std::shared_ptr<Waiter> w;
  {
    const std::lock_guard<std::mutex> guard(mutex_);
    const auto it = waiters_.find(id);
    if (it != waiters_.end()) {
      w = it->second;
      waiters_.erase(it);
    }
  }
  if (!w) return;
  {
    const std::lock_guard<std::mutex> guard(w->mutex);
    w->done = true;
    w->request = id;
    w->mode = Mode::kW;
  }
  w->cv.notify_all();
}

}  // namespace hlock::corba

namespace hlock::corba {

// ---------------------------------------------------------------------------
// ScopedLock
// ---------------------------------------------------------------------------

ScopedLock::~ScopedLock() {
  if (handle_.valid()) set_.unlock(handle_);
}

void ScopedLock::upgrade() {
  handle_ = set_.change_mode(handle_, LockMode::kWrite);
}

void ScopedLock::downgrade(LockMode mode) {
  handle_ = set_.change_mode(handle_, mode);
}

void ScopedLock::release() {
  if (handle_.valid()) {
    set_.unlock(handle_);
    handle_ = LockHandle{};
  }
}

}  // namespace hlock::corba
