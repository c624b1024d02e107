// Recovery fuzzer: random traffic, random interleavings, and repeated
// random crashes each followed by a view change. Invariants: never two
// incompatible holds among LIVE nodes; exactly one token at quiescence;
// every request issued by a SURVIVING node is eventually granted or was
// issued by a node that later crashed.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <vector>

#include "common/rng.hpp"
#include "core/hls_engine.hpp"
#include "test_util.hpp"

namespace hlock::core {
namespace {

class RecoveryFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RecoveryFuzz, RepeatedCrashesStaySafeAndLive) {
  const std::uint64_t seed = GetParam();
  Rng rng(seed);
  constexpr std::size_t kNodes = 6;

  testing::TestBus bus;
  testing::EngineFactory factory;
  std::vector<std::unique_ptr<HlsEngine>> engines;
  std::vector<std::map<RequestId, Mode>> held(kNodes);
  std::vector<bool> alive(kNodes, true);
  std::uint32_t view = 0;

  for (std::size_t i = 0; i < kNodes; ++i) {
    const NodeId id{static_cast<std::uint32_t>(i)};
    engines.push_back(factory.make(
        id, NodeId{0}, bus.port(id), EngineOptions{},
        [&, i](RequestId rid, Mode mode) { held[i][rid] = mode; }));
    HlsEngine* raw = engines.back().get();
    bus.register_handler(id, [&, i, raw](const Message& m) {
      if (alive[i]) raw->handle(m);
    });
  }

  auto check_mutex = [&] {
    for (std::size_t a = 0; a < kNodes; ++a) {
      if (!alive[a]) continue;
      for (const auto& [ra, ma] : held[a]) {
        for (std::size_t b = 0; b < kNodes; ++b) {
          if (!alive[b]) continue;
          for (const auto& [rb, mb] : held[b]) {
            if (a == b && ra == rb) continue;
            ASSERT_TRUE(compatible(ma, mb)) << "seed " << seed;
          }
        }
      }
    }
  };
  auto live_count = [&] {
    std::size_t n = 0;
    for (const bool a : alive) n += a ? 1 : 0;
    return n;
  };

  for (int step = 0; step < 1200; ++step) {
    const std::size_t i = rng.next_below(kNodes);
    const double dice = rng.next_double();
    if (!alive[i]) continue;
    if (dice < 0.35) {
      if (engines[i]->backlog_size() < 2 && !engines[i]->departed()) {
        (void)engines[i]->request_lock(kRealModes[rng.next_below(5)]);
      }
    } else if (dice < 0.60) {
      if (!held[i].empty()) {
        const RequestId rid = held[i].begin()->first;
        held[i].erase(rid);
        engines[i]->unlock(rid);
      }
    } else if (dice < 0.63 && live_count() > 2) {
      // CRASH node i, then the view service recovers everyone else.
      alive[i] = false;
      held[i].clear();
      ++view;
      std::size_t root = 0;
      while (!alive[root]) ++root;
      std::set<NodeId> survivors;
      for (std::size_t k = 0; k < kNodes; ++k) {
        if (alive[k]) survivors.insert(NodeId{static_cast<std::uint32_t>(k)});
      }
      for (std::size_t k = 0; k < kNodes; ++k) {
        if (alive[k]) {
          engines[k]->begin_recovery(
              view, NodeId{static_cast<std::uint32_t>(root)}, survivors);
        }
      }
    } else {
      for (std::size_t k = rng.next_below(4); k-- > 0;) {
        if (!bus.deliver_random(rng)) break;
        check_mutex();
      }
    }
  }

  // Drain.
  for (int round = 0; round < 20000; ++round) {
    while (bus.deliver_random(rng)) check_mutex();
    bool any = false;
    for (std::size_t i = 0; i < kNodes; ++i) {
      if (!alive[i]) continue;
      while (!held[i].empty()) {
        const RequestId rid = held[i].begin()->first;
        held[i].erase(rid);
        engines[i]->unlock(rid);
        any = true;
      }
    }
    bool quiet = bus.pending() == 0 && !any;
    for (std::size_t i = 0; i < kNodes && quiet; ++i) {
      if (!alive[i]) continue;
      quiet = held[i].empty() && !engines[i]->has_pending() &&
              engines[i]->backlog_size() == 0;
    }
    if (quiet) break;
  }

  // Liveness among survivors: nobody is left waiting.
  for (std::size_t i = 0; i < kNodes; ++i) {
    if (!alive[i]) continue;
    EXPECT_FALSE(engines[i]->has_pending()) << "node " << i << " seed "
                                            << seed;
    EXPECT_EQ(engines[i]->backlog_size(), 0u) << "node " << i;
  }
  // Exactly one token among the living.
  std::size_t tokens = 0;
  for (std::size_t i = 0; i < kNodes; ++i) {
    if (alive[i] && engines[i]->is_token_node()) ++tokens;
  }
  EXPECT_EQ(tokens, 1u) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, RecoveryFuzz,
                         ::testing::Range<std::uint64_t>(1, 31));

// ---------------------------------------------------------------------------
// Mixed churn: graceful leaves AND crashes in the same run.
// ---------------------------------------------------------------------------

class MixedChurnFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MixedChurnFuzz, LeavesAndCrashesTogether) {
  const std::uint64_t seed = GetParam();
  Rng rng(seed ^ 0xc0ffee);
  constexpr std::size_t kNodes = 7;

  testing::TestBus bus;
  testing::EngineFactory factory;
  std::vector<std::unique_ptr<HlsEngine>> engines;
  std::vector<std::map<RequestId, Mode>> held(kNodes);
  std::vector<bool> gone(kNodes, false);  // crashed or departed
  std::uint32_t view = 0;

  for (std::size_t i = 0; i < kNodes; ++i) {
    const NodeId id{static_cast<std::uint32_t>(i)};
    engines.push_back(factory.make(
        id, NodeId{0}, bus.port(id), EngineOptions{},
        [&, i](RequestId rid, Mode mode) { held[i][rid] = mode; }));
    HlsEngine* raw = engines.back().get();
    bus.register_handler(id, [&, i, raw](const Message& m) {
      if (!gone[i] || engines[i]->departed()) raw->handle(m);
    });
  }

  auto check_mutex = [&] {
    for (std::size_t a = 0; a < kNodes; ++a) {
      for (const auto& [ra, ma] : held[a]) {
        for (std::size_t b = 0; b < kNodes; ++b) {
          for (const auto& [rb, mb] : held[b]) {
            if (a == b && ra == rb) continue;
            ASSERT_TRUE(compatible(ma, mb)) << "seed " << seed;
          }
        }
      }
    }
  };
  auto live_count = [&] {
    std::size_t n = 0;
    for (const bool g : gone) n += g ? 0 : 1;
    return n;
  };

  for (int step = 0; step < 1500; ++step) {
    const std::size_t i = rng.next_below(kNodes);
    const double dice = rng.next_double();
    if (gone[i]) continue;
    if (dice < 0.35) {
      if (engines[i]->backlog_size() < 2) {
        (void)engines[i]->request_lock(kRealModes[rng.next_below(5)]);
      }
    } else if (dice < 0.58) {
      if (!held[i].empty()) {
        const RequestId rid = held[i].begin()->first;
        held[i].erase(rid);
        engines[i]->unlock(rid);
      }
    } else if (dice < 0.61 && live_count() > 3) {
      // Graceful leave (may be refused while holding/pending).
      std::size_t succ = rng.next_below(kNodes);
      while (succ == i || gone[succ]) succ = rng.next_below(kNodes);
      try {
        engines[i]->leave(NodeId{static_cast<std::uint32_t>(succ)});
        gone[i] = true;  // departed tombstone still forwards
      } catch (const std::logic_error&) {
      }
    } else if (dice < 0.63 && live_count() > 3) {
      // Crash + view change around it. Departed tombstones are not part
      // of the view (they hold no state), so survivors = live only.
      gone[i] = true;
      held[i].clear();
      ++view;
      std::size_t root = 0;
      while (gone[root]) ++root;
      std::set<NodeId> survivors;
      for (std::size_t k = 0; k < kNodes; ++k) {
        if (!gone[k]) survivors.insert(NodeId{static_cast<std::uint32_t>(k)});
      }
      for (std::size_t k = 0; k < kNodes; ++k) {
        if (!gone[k]) {
          engines[k]->begin_recovery(
              view, NodeId{static_cast<std::uint32_t>(root)}, survivors);
        }
      }
    } else {
      for (std::size_t k = rng.next_below(4); k-- > 0;) {
        if (!bus.deliver_random(rng)) break;
        check_mutex();
      }
    }
  }

  // Drain.
  for (int round = 0; round < 20000; ++round) {
    while (bus.deliver_random(rng)) check_mutex();
    bool any = false;
    for (std::size_t i = 0; i < kNodes; ++i) {
      if (gone[i]) continue;
      while (!held[i].empty()) {
        const RequestId rid = held[i].begin()->first;
        held[i].erase(rid);
        engines[i]->unlock(rid);
        any = true;
      }
    }
    bool quiet = bus.pending() == 0 && !any;
    for (std::size_t i = 0; i < kNodes && quiet; ++i) {
      if (gone[i]) continue;
      quiet = held[i].empty() && !engines[i]->has_pending() &&
              engines[i]->backlog_size() == 0;
    }
    if (quiet) break;
  }

  for (std::size_t i = 0; i < kNodes; ++i) {
    if (gone[i]) continue;
    EXPECT_FALSE(engines[i]->has_pending()) << "node " << i << " seed "
                                            << seed;
  }
  std::size_t tokens = 0;
  for (std::size_t i = 0; i < kNodes; ++i) {
    if (!gone[i] && engines[i]->is_token_node()) ++tokens;
  }
  EXPECT_EQ(tokens, 1u) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, MixedChurnFuzz,
                         ::testing::Range<std::uint64_t>(1, 21));

}  // namespace
}  // namespace hlock::core
