// Advanced facade tests: timeout locking (try_lock_for), ScopedLock RAII
// guards, and a multi-thread stress over real sockets.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "corba/concurrency.hpp"
#include "net/cluster.hpp"

namespace hlock::corba {
namespace {

constexpr LockId kLock{0};

struct Fixture {
  explicit Fixture(std::size_t n) : cluster(n) {
    for (std::size_t i = 0; i < n; ++i) {
      services.push_back(
          std::make_unique<ConcurrencyService>(cluster.node(i)));
      services.back()->create_lock_set(kLock, NodeId{0});
    }
  }
  net::InProcessCluster cluster;
  std::vector<std::unique_ptr<ConcurrencyService>> services;
};

TEST(TryLockFor, SucceedsWhenUncontended) {
  Fixture f(2);
  LockSet b = f.services[1]->lock_set(kLock);
  const auto h = b.try_lock_for(LockMode::kWrite, msec(2000));
  ASSERT_TRUE(h.has_value());
  b.unlock(*h);
}

TEST(TryLockFor, TimesOutUnderConflict) {
  Fixture f(2);
  LockSet a = f.services[0]->lock_set(kLock);
  LockSet b = f.services[1]->lock_set(kLock);
  const LockHandle hw = a.lock(LockMode::kWrite);
  const auto start = std::chrono::steady_clock::now();
  const auto h = b.try_lock_for(LockMode::kRead, msec(100));
  const auto waited = std::chrono::steady_clock::now() - start;
  EXPECT_FALSE(h.has_value());
  EXPECT_GE(waited, std::chrono::milliseconds(90));
  EXPECT_LT(waited, std::chrono::seconds(5));
  a.unlock(hw);
  // The cancelled request must not leave residue: a normal lock works.
  const LockHandle hb = b.lock(LockMode::kRead);
  b.unlock(hb);
}

TEST(TryLockFor, LateGrantAfterTimeoutIsNotLeaked) {
  // Repeat a tight-timeout acquisition under contention many times; every
  // outcome must either hold-and-release or cleanly time out. Afterwards
  // a writer from the other node must get through (nothing leaked).
  Fixture f(2);
  LockSet a = f.services[0]->lock_set(kLock);
  LockSet b = f.services[1]->lock_set(kLock);
  std::atomic<bool> stop{false};
  std::thread holder([&] {
    while (!stop.load()) {
      const LockHandle h = a.lock(LockMode::kWrite);
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      a.unlock(h);
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
  });
  int granted = 0, timed_out = 0;
  for (int i = 0; i < 50; ++i) {
    const auto h = b.try_lock_for(LockMode::kWrite, msec(1));
    if (h) {
      ++granted;
      b.unlock(*h);
    } else {
      ++timed_out;
    }
  }
  stop.store(true);
  holder.join();
  EXPECT_EQ(granted + timed_out, 50);
  // Bounded, so a leaked grant fails the test instead of hanging it.
  const auto final_w = a.try_lock_for(LockMode::kWrite, msec(2000));
  ASSERT_TRUE(final_w.has_value()) << "a timed-out request leaked its grant";
  a.unlock(*final_w);
}

TEST(TryLockFor, DeadlineBeforeTheRequestRunsLeaksNoGrant) {
  // The deadline expires while node 1's loop is still busy, before the
  // request task has run; the cancel that follows must still find the
  // request and absorb its eventual grant.
  Fixture f(2);
  LockSet a = f.services[0]->lock_set(kLock);
  LockSet b = f.services[1]->lock_set(kLock);
  f.cluster.node(1).loop().post(
      [] { std::this_thread::sleep_for(std::chrono::milliseconds(20)); });
  EXPECT_FALSE(b.try_lock_for(LockMode::kWrite, msec(1)).has_value());
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const auto h = a.try_lock_for(LockMode::kWrite, msec(2000));
  ASSERT_TRUE(h.has_value()) << "the timed-out request leaked its grant";
  a.unlock(*h);
}

TEST(ScopedLock, ReleasesOnScopeExit) {
  Fixture f(2);
  LockSet a = f.services[0]->lock_set(kLock);
  LockSet b = f.services[1]->lock_set(kLock);
  {
    const ScopedLock guard(a, LockMode::kWrite);
    EXPECT_EQ(guard.mode(), Mode::kW);
    EXPECT_FALSE(b.try_lock(LockMode::kRead).has_value());
  }
  // Guard destroyed: the other node can take the lock.
  const LockHandle hb = b.lock(LockMode::kWrite);
  b.unlock(hb);
}

TEST(ScopedLock, UpgradeAndEarlyRelease) {
  Fixture f(1);
  LockSet a = f.services[0]->lock_set(kLock);
  ScopedLock guard(a, LockMode::kUpgrade);
  EXPECT_EQ(guard.mode(), Mode::kU);
  guard.upgrade();
  EXPECT_EQ(guard.mode(), Mode::kW);
  guard.downgrade(LockMode::kRead);
  EXPECT_EQ(guard.mode(), Mode::kR);
  guard.release();
  // Double release is a no-op; destructor must not throw.
  guard.release();
}

TEST(ScopedLock, MoveTransfersOwnership) {
  Fixture f(1);
  LockSet a = f.services[0]->lock_set(kLock);
  ScopedLock first(a, LockMode::kRead);
  ScopedLock second(std::move(first));
  EXPECT_EQ(second.mode(), Mode::kR);
  // `first` must not release in its destructor (handle moved out).
}

TEST(FacadeStress, ManyThreadsManyNodesMixedModes) {
  Fixture f(4);
  std::atomic<int> writers_inside{0};
  std::atomic<bool> broken{false};
  std::vector<std::thread> threads;
  for (std::size_t n = 0; n < 4; ++n) {
    for (int t = 0; t < 2; ++t) {
      threads.emplace_back([&, n, t] {
        LockSet set = f.services[n]->lock_set(kLock);
        for (int round = 0; round < 8; ++round) {
          if ((t + round) % 3 == 0) {
            const ScopedLock guard(set, LockMode::kWrite);
            if (writers_inside.fetch_add(1) != 0) broken.store(true);
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
            writers_inside.fetch_sub(1);
          } else {
            const ScopedLock guard(set, LockMode::kRead);
            if (writers_inside.load() != 0) broken.store(true);
            std::this_thread::sleep_for(std::chrono::microseconds(300));
          }
        }
      });
    }
  }
  for (auto& t : threads) t.join();
  EXPECT_FALSE(broken.load());
}

TEST(Recovery, CrashedNodeOverTcpIsRecoveredAround) {
  Fixture f(3);
  LockSet a = f.services[0]->lock_set(kLock);
  LockSet c = f.services[2]->lock_set(kLock);

  // Node 1 takes the token with W, then "crashes" (its loop stops; its
  // sockets go quiet).
  {
    LockSet b = f.services[1]->lock_set(kLock);
    const LockHandle hb = b.lock(LockMode::kWrite);
    (void)hb;  // crashed while holding
  }
  f.cluster.node(1).loop().stop();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  // View service recovers nodes 0 and 2 with node 0 as the new root.
  const std::set<NodeId> survivors{NodeId{0}, NodeId{2}};
  f.services[0]->recover(kLock, 1, NodeId{0}, survivors);
  f.services[2]->recover(kLock, 1, NodeId{0}, survivors);

  // The dead writer's hold is gone; survivors can lock again.
  const LockHandle ha = a.lock(LockMode::kWrite);
  a.unlock(ha);
  const LockHandle hc = c.lock(LockMode::kRead);
  c.unlock(hc);
}

}  // namespace
}  // namespace hlock::corba
